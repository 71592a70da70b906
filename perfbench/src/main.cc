/**
 * @file
 * bsyn_perfbench — the repository's benchmark. One process runs one
 * workload through libbsyn's public API, checks its outputs and prints
 * a report whose last line is one JSON object:
 *
 *   bsyn_perfbench --workload <suite|fidelity-presets|replay-hot>
 *                  --seed N --seconds S --trace <0|1>
 *                  [--out-dir D] [--digests F]
 *                  [--git-head H] [--source-digest H]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
 * per-layer pass instead and also writes its spans as Chrome
 * trace-event JSON under the output directory. Run it through
 * perfbench/run.py, which builds it first.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.hh"
#include "obs/log.hh"
#include "support/json.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "bsyn_perfbench: %s\nusage: bsyn_perfbench --workload "
                 "<suite|fidelity-presets|replay-hot> --seed N --seconds S "
                 "--trace <0|1> [--out-dir D] [--digests F] "
                 "[--git-head H] [--source-digest H]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used, 0);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = next();
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = parseUnsigned(a, next());
        } else if (a == "--seconds") {
            o.seconds = double(parseUnsigned(a, next()));
        } else if (a == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out-dir") {
            o.outDir = next();
        } else if (a == "--digests") {
            o.digestsPath = next();
        } else if (a == "--git-head") {
            o.gitHead = next();
        } else if (a == "--source-digest") {
            o.sourceDigest = next();
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");
    return o;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (!releaseBuild()) {
        std::fprintf(stderr, "bsyn_perfbench: refusing to report from a "
                             "non-Release build (%s)\n",
                     PERFBENCH_BUILD_TYPE);
        return 1;
    }
    bsyn::obs::setLogLevel(bsyn::obs::LogLevel::Warn);

    Result res;
    try {
        if (opts.workload == "suite")
            res = runSuite(opts);
        else if (opts.workload == "fidelity-presets")
            res = runFidelityPresets(opts);
        else if (opts.workload == "replay-hot")
            res = runReplayHot(opts);
        else
            usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bsyn_perfbench: %s\n", e.what());
        return 1;
    }

    const Outcome &oc = res.outcome;
    for (const auto &[name, m] : res.metrics)
        if (!std::isfinite(m.value))
            res.outcome.fail("metric " + name + " is not finite");
    const bool correct = oc.failed() == 0 && oc.attempted() > 0;

    // Human-readable report, then the result line.
    const std::string stamp = machineStamp(opts);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("machine %s\n", stamp.c_str());
    for (const auto &[name, m] : res.metrics)
        std::printf("metric %-34s %.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &[name, text] : res.extras)
        std::printf("extra  %-34s %s\n", name.c_str(), text.c_str());
    std::printf("extra  %-34s %.6g ratio (%llu of %llu failed)\n",
                "fail_frac", double(oc.failed()) / double(oc.attempted()),
                static_cast<unsigned long long>(oc.failed()),
                static_cast<unsigned long long>(oc.attempted()));
    for (const auto &[key, hex] : res.digests)
        std::printf("digest %-34s %s\n", key.c_str(), hex.c_str());
    for (const auto &f : oc.failures())
        std::printf("FAILED %s\n", f.c_str());

    using bsyn::Json;
    Json metrics = Json::object();
    for (const auto &[name, m] : res.metrics) {
        Json v = Json::object();
        v.set("value", Json(m.value));
        v.set("unit", Json(m.unit));
        metrics.set(name, v);
    }
    Json line = Json::object();
    line.set("correct", Json(correct));
    line.set("attempted", Json(oc.attempted()));
    line.set("failed", Json(oc.failed()));
    line.set("metrics", metrics);

    const std::string tag = opts.workload + "-seed" +
                            std::to_string(opts.seed) + "-trace" +
                            (opts.trace ? "1" : "0");
    Json record = Json::parse(line.dump(-1));
    record.set("machine", Json::parse(stamp));
    Json extras = Json::object();
    for (const auto &[name, text] : res.extras)
        extras.set(name, Json(text));
    record.set("extras", extras);
    try {
        writeFile(opts.outDir + "/results/" + tag + ".json",
                  record.dump(2) + "\n");
        if (!res.traceJson.empty()) {
            std::string path = opts.outDir + "/traces/" + tag + ".json";
            writeFile(path, res.traceJson);
            std::printf("trace  %s\n", path.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bsyn_perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("%s\n", line.dump(-1).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
