#include "pipeline/session.hh"

#include <optional>

#include "lang/frontend.hh"
#include "obs/trace.hh"
#include "sim/decoded_program.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "support/json.hh"

namespace bsyn::pipeline
{

namespace
{

Json
benchmarkToJson(const synth::SyntheticBenchmark &b)
{
    Json root = Json::object();
    root.set("name", Json(b.name));
    root.set("cSource", Json(b.cSource));
    root.set("reductionFactor", Json(b.reductionFactor));
    root.set("phases", Json(static_cast<uint64_t>(b.phases)));
    Json ps = Json::object();
    ps.set("coveredInstrs", Json(b.patternStats.coveredInstrs));
    ps.set("uncoveredInstrs", Json(b.patternStats.uncoveredInstrs));
    ps.set("statements", Json(b.patternStats.statements));
    ps.set("compensationStmts", Json(b.patternStats.compensationStmts));
    root.set("patternStats", ps);
    return root;
}

synth::SyntheticBenchmark
benchmarkFromJson(const Json &j)
{
    synth::SyntheticBenchmark b;
    b.name = j.get("name").asString();
    b.cSource = j.get("cSource").asString();
    b.reductionFactor =
        static_cast<uint64_t>(j.get("reductionFactor").asNumber());
    if (j.has("phases"))
        b.phases = static_cast<uint32_t>(j.get("phases").asNumber());
    const Json &ps = j.get("patternStats");
    b.patternStats.coveredInstrs =
        static_cast<uint64_t>(ps.get("coveredInstrs").asNumber());
    b.patternStats.uncoveredInstrs =
        static_cast<uint64_t>(ps.get("uncoveredInstrs").asNumber());
    b.patternStats.statements =
        static_cast<uint64_t>(ps.get("statements").asNumber());
    b.patternStats.compensationStmts =
        static_cast<uint64_t>(ps.get("compensationStmts").asNumber());
    return b;
}

/** A memory-tier entry holding @p text, without the spare capacity
 *  that building it by appending left behind. */
std::shared_ptr<std::string>
memoText(std::string text)
{
    text.shrink_to_fit();
    return std::make_shared<std::string>(std::move(text));
}

} // namespace

SessionOptions::SessionOptions() : synthesis(defaultSynthesisOptions()) {}

/** See the declaration: pinned on the heap so the DecodedProgram's
 *  back-reference into prog stays valid for the entry's lifetime. */
struct Session::DecodedMeasure
{
    explicit DecodedMeasure(const std::string &source)
        : prog(measureProgram(source)), decoded(prog)
    {
    }
    DecodedMeasure(const DecodedMeasure &) = delete;
    DecodedMeasure &operator=(const DecodedMeasure &) = delete;

    isa::MachineProgram prog;
    sim::DecodedProgram decoded;
};

uint64_t
Session::measureInstructions(const std::string &source)
{
    Sha256 h;
    h.update(source);
    auto measure = decodeMemo_.get(h.hexDigest(), [&] {
        decodeMisses_.add();
        return std::make_shared<DecodedMeasure>(source);
    });
    return sim::execute(measure->decoded).instructions;
}

Session::Session(SessionOptions opts)
    : options_(std::move(opts)), cache_(options_.cacheDir),
      metrics_(options_.metricsParent ? options_.metricsParent
                                      : &obs::Registry::global()),
      profileHits_(metrics_.counter("pipeline.cache.profile.hits")),
      profileMisses_(metrics_.counter("pipeline.cache.profile.misses")),
      synthHits_(metrics_.counter("pipeline.cache.synth.hits")),
      synthMisses_(metrics_.counter("pipeline.cache.synth.misses")),
      decodeHits_(metrics_.counter("pipeline.memo.decode.hits")),
      decodeMisses_(metrics_.counter("pipeline.memo.decode.misses")),
      profileMemo_(kMemoCapacity,
                   metrics_.counter("pipeline.memo.profile.hits"),
                   metrics_.counter("pipeline.memo.profile.waits")),
      synthMemo_(kMemoCapacity, metrics_.counter("pipeline.memo.synth.hits"),
                 metrics_.counter("pipeline.memo.synth.waits")),
      decodeMemo_(kMemoCapacity, decodeHits_,
                  metrics_.counter("pipeline.memo.decode.waits"))
{
}

Session::~Session() = default;

ThreadPool &
Session::pool()
{
    std::lock_guard<std::mutex> lock(poolMtx_);
    if (!ownedPool_)
        ownedPool_ =
            std::make_unique<ThreadPool>(options_.threads, &metrics_);
    return *ownedPool_;
}

CacheStats
Session::cacheStats() const
{
    CacheStats s;
    s.profileHits = profileHits_.value();
    s.profileMisses = profileMisses_.value();
    s.synthHits = synthHits_.value();
    s.synthMisses = synthMisses_.value();
    s.decodeHits = decodeHits_.value();
    s.decodeMisses = decodeMisses_.value();
    return s;
}

// --------------------------------------------------------------- stages

bsyn::profile::StatisticalProfile
Session::profile(const std::string &source, const std::string &name,
                 bool *cached)
{
    // v3: profiles became time-sliced with a per-phase sub-profile
    // list (v2 entries lack the slice stream and must not be reused);
    // the profiling options join the key so sessions that profile
    // differently keep distinct entries.
    obs::Span span("profile", "workload", name);
    std::string key = ArtifactCache::key(
        "profile.v3",
        {name, source, bsyn::profile::fingerprint(options_.profiling)});
    std::optional<bsyn::profile::StatisticalProfile> computed;
    auto text = profileMemo_.get(key, [&] {
        std::string t;
        {
            obs::Span probe("cache-probe", "stage", "profile");
            if (cache_.load(key, t))
                return memoText(std::move(t));
        }
        profileMisses_.add();
        ir::Module mod;
        {
            obs::Span cspan("compile", "workload", name);
            mod = lang::compile(source, name); // -O0 shape
        }
        computed = bsyn::profile::profileModule(mod, options_.profiling);
        t = computed->serialize();
        cache_.store(key, t);
        return memoText(std::move(t));
    });
    span.arg("cache", computed ? "miss" : "hit");
    if (cached)
        *cached = !computed;
    if (computed)
        return std::move(*computed);
    profileHits_.add();
    return bsyn::profile::StatisticalProfile::deserialize(*text);
}

bsyn::profile::StatisticalProfile
Session::profile(const workloads::Workload &w, bool *cached)
{
    return profile(w.source, w.name(), cached);
}

synth::SyntheticBenchmark
Session::synthesize(const bsyn::profile::StatisticalProfile &prof,
                    const synth::SynthesisOptions &opts, bool *cached)
{
    // v3: synthesis became phase-aware (one stitched skeleton per
    // profile phase) — v2 clones of multi-phase profiles must not be
    // reused, and the benchmark JSON gained the phase count.
    obs::Span span("synthesize", "workload", prof.workloadName);
    std::string key = ArtifactCache::key(
        "synth.v3", {synth::fingerprint(opts), prof.serialize()});
    std::optional<synth::SyntheticBenchmark> computed;
    auto compute = [&] {
        std::string t;
        {
            obs::Span probe("cache-probe", "stage", "synthesize");
            if (cache_.load(key, t))
                return memoText(std::move(t));
        }
        synthMisses_.add();
        // Calibration candidates fan across the session pool (intra-
        // workload parallelism); under processSuite the nested
        // parallelFor degrades to inline execution on the worker, and
        // either way the clone bytes are schedule-independent.
        computed = synth::synthesize(
            prof, opts,
            [this](const std::string &src) {
                return measureInstructions(src);
            },
            [this](size_t n, const std::function<void(size_t)> &fn) {
                if (n <= 1) {
                    for (size_t i = 0; i < n; ++i)
                        fn(i);
                    return;
                }
                parallelFor(n, fn);
            });
        t = benchmarkToJson(*computed).dump(-1);
        cache_.store(key, t);
        return memoText(std::move(t));
    };
    // The calibration fan-out may block on the pool (see Memo::get).
    auto text = synthMemo_.get(key, compute, /*fansOut=*/true);
    span.arg("cache", computed ? "miss" : "hit");
    if (cached)
        *cached = !computed;
    if (computed)
        return std::move(*computed);
    synthHits_.add();
    return benchmarkFromJson(Json::parse(*text));
}

WorkloadRun
Session::process(const workloads::Workload &w,
                 const synth::SynthesisOptions &opts, RunStatus *st)
{
    WorkloadRun run;
    run.workload = w;
    bool profCached = false, synCached = false;
    run.profile = profile(w, &profCached);
    run.synthetic = synthesize(run.profile, opts, &synCached);
    if (st) {
        st->workload = w.name();
        st->ok = true;
        st->profileCached = profCached;
        st->synthCached = synCached;
    }
    return run;
}

WorkloadRun
Session::process(const workloads::Workload &w)
{
    return process(w, options_.synthesis);
}

// -------------------------------------------------------------- batches

std::vector<RunStatus>
Session::processSuite(const std::vector<workloads::Workload> &suite,
                      RunSink &sink)
{
    std::vector<RunStatus> statuses(suite.size());
    if (suite.empty())
        return statuses;

    pool().parallelFor(suite.size(), [&](size_t i) {
        obs::Span span("workload", "workload", suite[i].name());
        RunStatus st;
        st.index = i;
        st.workload = suite[i].name();
        WorkloadRun run;
        run.workload = suite[i];
        try {
            synth::SynthesisOptions so = options_.synthesis;
            so.seed = deriveWorkloadSeed(so.seed, suite[i].name());
            run = process(suite[i], so, &st);
            st.index = i; // process() fills the other fields
        } catch (const std::exception &e) {
            st.ok = false;
            st.error = e.what();
        }
        metrics_
            .counter(st.ok ? "pipeline.suite.workloads.ok"
                           : "pipeline.suite.workloads.failed")
            .add();
        statuses[i] = st;
        sink.consume(st, run);
    });
    return statuses;
}

std::vector<WorkloadRun>
Session::processSuite(const std::vector<workloads::Workload> &suite)
{
    CollectSink collect;
    auto statuses = processSuite(suite, collect);
    for (const auto &st : statuses)
        if (!st.ok)
            fatal("workload %s failed: %s", st.workload.c_str(),
                  st.error.c_str());
    return collect.takeRuns();
}

void
Session::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    pool().parallelFor(n, fn);
}

} // namespace bsyn::pipeline
