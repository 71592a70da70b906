#include "harness.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_stats.hh"
#include "pipeline/pipeline.hh"
#include "support/hash.hh"
#include "support/json.hh"

namespace perfbench
{

using bsyn::Json;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
releaseFreeMemory()
{
    malloc_trim(0);
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
sha256(const std::string &text)
{
    bsyn::Sha256 h;
    h.update(text);
    return h.hexDigest();
}

std::string
outputsDigest(const std::vector<CloneOutput> &outputs)
{
    bsyn::Sha256 h;
    for (const auto &o : outputs) {
        // Length-prefixed so no two output lists hash alike by accident.
        for (const std::string *part :
             {&o.name, &o.profileJson, &o.cloneSource}) {
            h.update(std::to_string(part->size()) + ":");
            h.update(*part);
        }
    }
    return h.hexDigest();
}

void
Outcome::fail(const std::string &why)
{
    ++failed_;
    failures_.push_back(why);
}

bool
Outcome::expectEqual(const std::string &what, const std::string &expected,
                     const std::string &actual)
{
    if (expected == actual)
        return true;
    fail(what + ": expected " + expected + ", got " + actual);
    return false;
}

std::string
pinnedDigest(const Options &opts, const std::string &workload,
             const std::string &key)
{
    if (opts.seed != kDefaultSeed)
        return "";
    std::ifstream in(opts.digestsPath);
    if (!in)
        return "";
    std::stringstream ss;
    ss << in.rdbuf();
    Json root = Json::parse(ss.str());
    if (!root.has(workload) || !root.get(workload).has(key))
        return "";
    return root.get(workload).get(key).asString();
}

void
checkPinned(const Options &opts, Result &res, const std::string &key,
            const std::string &actual)
{
    std::string pinned = pinnedDigest(opts, opts.workload, key);
    res.digests[key] = actual;
    if (!pinned.empty())
        res.outcome.expectEqual("pinned " + key, pinned, actual);
}

double
medianSetupSeconds(int n, const std::function<void()> &setup)
{
    std::vector<double> samples;
    for (int i = 0; i < n; ++i) {
        auto t0 = Clock::now();
        setup();
        samples.push_back(secondsSince(t0));
    }
    return median(samples);
}

ScratchDir::ScratchDir(const Options &opts, const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    path_ = opts.outDir + "/tmp/" + std::to_string(getpid()) + "-" + tag +
            "-" + std::to_string(counter.fetch_add(1));
    std::filesystem::remove_all(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

FidelitySummary
summarizeFidelity(const bsyn::gen::FidelityReport &rep, Outcome &outcome)
{
    FidelitySummary f;
    Json results = rep.resultsJson();
    f.digest = sha256(results.dump(-1));
    for (const auto &inst : rep.instances) {
        outcome.attempt();
        if (!inst.ok)
            outcome.fail("fidelity " + inst.workload + ": " + inst.error);
        f.meanErr += inst.meanError;
        f.profileS += inst.profileSecs;
        f.cloneProfileS += inst.cloneProfileSecs;
        f.synthS += inst.synthSecs;
        f.timingS += inst.timingSecs;
    }
    if (!rep.instances.empty())
        f.meanErr /= double(rep.instances.size());
    const Json &summary = results.get("summary");
    if (summary.has("timing.cpi"))
        f.cpiErr = summary.get("timing.cpi").get("mean").asNumber();
    if (summary.has("phaseWorstMix"))
        f.phaseErr = summary.get("phaseWorstMix").get("mean").asNumber();
    return f;
}

FidelitySummary
scoreClones(const Options &opts,
            const std::vector<bsyn::workloads::Workload> &corpus,
            const std::string &cacheDir, Outcome &outcome)
{
    bsyn::pipeline::SessionOptions so;
    so.threads = poolThreads();
    so.cacheDir = cacheDir;
    so.synthesis = synthesisOptions(opts);
    bsyn::pipeline::Session session(so);
    bsyn::gen::FidelityOptions fo;
    fo.synthesis = session.options().synthesis;
    return summarizeFidelity(bsyn::gen::scoreFidelity(session, corpus, fo),
                             outcome);
}

void
setFidelityMetrics(Result &res, const FidelitySummary &f)
{
    res.set("fidelity_mean_err", f.meanErr, "ratio");
    res.set("fidelity_phase_err", f.phaseErr, "ratio");
    // Deterministic, but it moves too much from seed to seed on five
    // clones to carry a bound: printed, not gated.
    res.extra("fidelity_cpi_err", std::to_string(f.cpiErr) + " ratio");
}

void
setFidelityLayerMetrics(Result &res, const FidelitySummary &f)
{
    res.set("fidelity.profile_s", f.profileS, "s");
    res.set("fidelity.clone_profile_s", f.cloneProfileS, "s");
    res.set("fidelity.synth_s", f.synthS, "s");
    res.set("fidelity.timing_s", f.timingS, "s");
}

bsyn::synth::SynthesisOptions
synthesisOptions(const Options &opts)
{
    bsyn::synth::SynthesisOptions so = bsyn::pipeline::defaultSynthesisOptions();
    so.seed = opts.seed;
    return so;
}

unsigned
poolThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

} // namespace

bool
releaseBuild()
{
#if defined(NDEBUG)
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
    return false;
#endif
}

std::string
machineStamp(const Options &opts)
{
    Json m = Json::object();
    m.set("nproc", Json(uint64_t(std::thread::hardware_concurrency())));
    m.set("pool_threads", Json(uint64_t(poolThreads())));
    m.set("cpu", Json(cpuModel()));
    m.set("compiler", Json(PERFBENCH_COMPILER));
    m.set("build_type", Json(PERFBENCH_BUILD_TYPE));
    m.set("git_head", Json(opts.gitHead));
    m.set("source_sha256", Json(opts.sourceDigest));
    return m.dump(-1);
}

} // namespace perfbench
