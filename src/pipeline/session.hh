/**
 * @file
 * pipeline::Session — the one driver of the paper's Figure-1 flow. A
 * Session owns the worker thread pool and two content-addressed
 * artifact tiers (a bounded in-memory memo in front of the disk
 * ArtifactCache), and exposes each cached stage (profile, synthesize,
 * process, processSuite) as a first-class call so any prefix of the
 * flow can be reused or resumed: a warm session or cache skips every
 * repeated profile and synthesis while producing byte-identical
 * output, and batch results stream into a RunSink instead of
 * accumulating in memory.
 */

#ifndef BSYN_PIPELINE_SESSION_HH
#define BSYN_PIPELINE_SESSION_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "pipeline/artifact_cache.hh"
#include "pipeline/memo.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "profile/profiler.hh"
#include "support/thread_pool.hh"

namespace bsyn::pipeline
{

/** Configuration for a Session. */
struct SessionOptions
{
    /** Artifact cache directory; empty disables disk caching. */
    std::string cacheDir;

    /** Worker threads for batch stages: 0 = one per hardware thread.
     *  The pool is created lazily, so a session used only for
     *  single-workload stages spawns no threads. */
    unsigned threads = 0;

    /** Synthesis configuration used when a call does not pass its own;
     *  its seed is the batch *base* seed that deriveWorkloadSeed()
     *  specializes per workload. */
    synth::SynthesisOptions synthesis;

    /** Profiling configuration; profile::fingerprint() of it is part
     *  of the profile cache key. */
    bsyn::profile::ProfileOptions profiling;

    /** Registry the session's scoped metrics chain into (and through
     *  it, transitively, into obs::Registry::global()). Null means the
     *  global registry directly. Not owned; must outlive the Session.
     *  A serve::Worker passes its own registry here so one scrape of
     *  the worker sees its session's cache traffic too. */
    obs::Registry *metricsParent = nullptr;

    SessionOptions();
};

/** Snapshot of a session's cache-hit counters (per stage). Since the
 *  observability layer landed this is a *view* over the session's
 *  named metrics ("pipeline.cache.*" in the session's scoped
 *  obs::Registry) — the counters themselves live in the registry and
 *  also aggregate process-wide through the parent chain. */
struct CacheStats
{
    /** Profiles and clones served (from the memory or the disk tier,
     *  or by waiting for a concurrent caller's computation) vs.
     *  computed: misses count computations, whichever tier is on. */
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
    uint64_t synthHits = 0;
    uint64_t synthMisses = 0;

    /** Decoded calibration programs served from memory vs. built.
     *  Tracked apart from the artifact counters: hits() and misses()
     *  describe profiles and clones only. */
    uint64_t decodeHits = 0;
    uint64_t decodeMisses = 0;

    uint64_t hits() const { return profileHits + synthHits; }
    uint64_t misses() const { return profileMisses + synthMisses; }
};

/**
 * A pipeline session: stage entry points plus the shared state — thread
 * pool, artifact tiers, hit/miss counters — that lets stages compose
 * and repeated runs reuse earlier work. Stage calls are thread-safe and
 * may be issued from the session's own pool workers (the batch path
 * does exactly that).
 *
 * Profiles and clones are looked up in memory first, then on disk (when
 * a cache directory is set), then computed and stored to both. Lookups
 * are single-flight: concurrent calls for one key compute it once, the
 * first caller computing and the others waiting for its result. The
 * memory tier keeps the disk tier's text, so a memory hit decodes the
 * same bytes a disk hit would.
 */
class Session
{
  public:
    explicit Session(SessionOptions opts = SessionOptions());
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    // ------------------------------------------------------------ stages

    /** Profile @p source at -O0 (cached by source content + name).
     *  @p cached, when non-null, reports whether the cache served it. */
    bsyn::profile::StatisticalProfile
    profile(const std::string &source, const std::string &name,
            bool *cached = nullptr);

    /** Profile a suite workload (cached). */
    bsyn::profile::StatisticalProfile
    profile(const workloads::Workload &w, bool *cached = nullptr);

    /** Synthesize a clone of @p prof (cached by profile content +
     *  options). Calibration runs only on a cache miss. */
    synth::SyntheticBenchmark
    synthesize(const bsyn::profile::StatisticalProfile &prof,
               const synth::SynthesisOptions &opts, bool *cached = nullptr);

    /** Profile + synthesize one workload with explicit options (the
     *  seed is used as-is; batch seed derivation happens in
     *  processSuite). @p st, when non-null, receives stage provenance. */
    WorkloadRun process(const workloads::Workload &w,
                        const synth::SynthesisOptions &opts,
                        RunStatus *st = nullptr);

    /** Profile + synthesize with the session's default options. */
    WorkloadRun process(const workloads::Workload &w);

    /**
     * Dynamic instruction count of @p source at O0/x86 — the
     * calibration measurement. The compiled, lowered and predecoded
     * program is memoized by source content (single-flight, like
     * profiles and clones), so re-measuring an unchanged candidate
     * (across calibration rounds, workloads or repeated synthesize()
     * calls in one session) costs one predecoded execution and nothing
     * else, and concurrent measurements of one source build it once.
     */
    uint64_t measureInstructions(const std::string &source);

    // ----------------------------------------------------------- batches

    /**
     * Profile + synthesize every workload of @p suite, fanned across
     * the session pool, streaming each finished run into @p sink.
     * Per-workload seeds derive from the session's synthesis seed and
     * the workload name, so results are byte-identical for any thread count and for
     * cold vs. warm cache. A workload failure is reported as a !ok
     * RunStatus (on the sink and in the returned vector, which is in
     * suite order) and never aborts the rest of the batch.
     */
    std::vector<RunStatus>
    processSuite(const std::vector<workloads::Workload> &suite,
                 RunSink &sink);

    /** Convenience batch: collect to a vector in suite order. Strict —
     *  rethrows the first per-workload failure as FatalError. */
    std::vector<WorkloadRun>
    processSuite(const std::vector<workloads::Workload> &suite);

    /** Run fn(0)..fn(n-1) on the session pool (barrier at the end) —
     *  lets harnesses fan their own per-run measurement loops out with
     *  the same workers the batch stages use. */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    // ------------------------------------------------------------- state

    /** The session's worker pool (created on first use). */
    ThreadPool &pool();

    ArtifactCache &cache() { return cache_; }
    const SessionOptions &options() const { return options_; }

    /** Per-stage cache hit/miss counters since construction. */
    CacheStats cacheStats() const;

    /** The session's scoped metrics registry ("pipeline.cache.*",
     *  "pipeline.memo.*", "pipeline.suite.*", this session's
     *  thread-pool metrics). */
    obs::Registry &metrics() { return metrics_; }

    /** Entries each in-memory tier (profiles, clones, decoded
     *  calibration programs) keeps; least recently used go first. */
    static constexpr size_t kMemoCapacity = 512;

  private:
    /** A measurement program: the lowered MachineProgram plus its
     *  predecoded form (which points back into the program, so entries
     *  are heap-pinned behind shared_ptr and never moved). */
    struct DecodedMeasure;

    SessionOptions options_;
    ArtifactCache cache_;

    std::mutex poolMtx_; ///< guards lazy pool creation
    std::unique_ptr<ThreadPool> ownedPool_;

    /** Session-scoped metric namespace; every update also flows into
     *  the parent chain (ultimately obs::Registry::global()). */
    obs::Registry metrics_;

    // Named-counter handles (stable for the registry's lifetime).
    obs::Counter &profileHits_;
    obs::Counter &profileMisses_;
    obs::Counter &synthHits_;
    obs::Counter &synthMisses_;
    obs::Counter &decodeHits_;
    obs::Counter &decodeMisses_;

    /** The memory tier, keyed by ArtifactCache::key: profile and clone
     *  text as the disk tier stores it, and decoded calibration
     *  programs (keyed by source). */
    Memo<std::string> profileMemo_;
    Memo<std::string> synthMemo_;
    Memo<DecodedMeasure> decodeMemo_;
};

} // namespace bsyn::pipeline

#endif // BSYN_PIPELINE_SESSION_HH
