/**
 * @file
 * Workload "replay-hot": an open-loop replay::runReplay in direct mode
 * with no cache directory — many concurrent repeats of five keys into
 * one warm Session.
 */

#include <sys/resource.h>

#include <memory>

#include "bench_stats.hh"
#include "layers.hh"
#include "replay/engine.hh"
#include "pipeline/pipeline.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace bsyn;

namespace
{

const char *const kMix =
    "crc32/small;stringsearch/small;branch_maze,iters=20000:2";
const char *const kSchedule = "constant,rate=50";
constexpr uint64_t kPopulation = 3; // branch_maze seeds 1..3: 5 keys
constexpr unsigned kDrivers = 4;
constexpr double kWarmupSeconds = 2.0;
constexpr double kPinnedReplaySeconds = 20.0; ///< round the pin is for
constexpr int kSetups = 15; ///< set-ups timed back to back

replay::ReplayOptions
replayOptions(const Options &opts, double seconds)
{
    replay::ReplayOptions ro;
    ro.scheduleSpec = kSchedule;
    ro.mixSpec = kMix;
    ro.durationS = seconds;
    ro.seed = opts.seed;
    ro.threads = kDrivers;
    ro.population = kPopulation;
    ro.targetInstr = synthesisOptions(opts).targetInstructions;
    return ro;
}

/** User plus system CPU time of this process, in seconds. */
double
cpuSeconds()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/** The SessionOptions runReplay builds its Session with. */
pipeline::SessionOptions
sessionOptions(const replay::ReplayOptions &ro)
{
    pipeline::SessionOptions so;
    so.threads = ro.threads;
    so.synthesis.targetInstructions = ro.targetInstr;
    so.synthesis.seed = ro.seed;
    return so;
}

/** Run one replay and check that every arrival succeeded. */
replay::ReplayReport
replayChecked(const Options &opts, double seconds, Result &res,
              const std::string &what)
{
    replay::ReplayOptions ro = replayOptions(opts, seconds);
    replay::ReplayReport rep = replay::runReplay(ro);
    res.outcome.attempt(rep.arrivals.size());
    for (const auto &a : rep.arrivals)
        if (!a.ok)
            res.outcome.fail(what + " arrival: " + a.error);
    res.outcome.expectEqual(what + " ok count",
                            std::to_string(rep.arrivals.size()),
                            std::to_string(rep.okCount));
    return rep;
}

const replay::StageSummary &
stage(const replay::ReplayReport &rep, const std::string &name)
{
    for (const auto &s : rep.stages)
        if (s.stage == name)
            return s;
    throw std::runtime_error("replay report lacks stage " + name);
}

} // namespace

Result
runReplayHot(const Options &opts)
{
    Result res;
    std::vector<workloads::Workload> corpus;
    // Set-up: resolve the mix and the schedule into the arrival stream,
    // and build a Session and its pool with the options runReplay gives
    // its own (which runReplay then builds again, untimed).
    std::unique_ptr<pipeline::Session> session;
    auto resolve = [&] {
        auto mix = replay::Mix::parse(kMix, kPopulation);
        auto schedule = replay::Schedule::parse(kSchedule);
        schedule.arrivals(opts.seconds, opts.seed);
        corpus = mix.population();
    };
    auto setup = [&] {
        session.reset();
        releaseFreeMemory();
        auto t0 = Clock::now();
        resolve();
        session = std::make_unique<pipeline::Session>(
            sessionOptions(replayOptions(opts, opts.seconds)));
        session->pool();
        return secondsSince(t0);
    };
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i)
        setups.push_back(setup());
    session.reset();
    const double setupS = median(setups);

    replayChecked(opts, kWarmupSeconds, res, "warm-up replay");

    if (!opts.trace) {
        releaseFreeMemory();
        resetPeakRss();
        const double cpu0 = cpuSeconds();
        replay::ReplayReport rep =
            replayChecked(opts, opts.seconds, res, "replay");
        const double cpuS = cpuSeconds() - cpu0;
        const double rss = peakRssMb();
        if (opts.seconds == kPinnedReplaySeconds)
            checkPinned(opts, res, "stream", rep.streamDigest);
        const auto &total = stage(rep, "total");
        const auto &queue = stage(rep, "queue");
        // The replay's wall time is fixed by its schedule, and its
        // latency swings with load on the host by more than a bound can
        // take. The CPU time the arrivals cost grows with their work.
        res.set("setup_s", setupS, "s");
        res.set("batch_s", cpuS, "s");
        res.set("peak_rss_mb", rss, "MiB");
        FidelitySummary f = scoreClones(opts, corpus, "", res.outcome);
        checkPinned(opts, res, "clones", f.digest);
        setFidelityMetrics(res, f);
        // The gated metrics are the same on every workload, so the
        // replay's latency is printed.
        const std::string n = std::to_string(total.count) + " samples";
        res.extra("latency_p50_ms", std::to_string(total.p50Ms) + " ms");
        res.extra("latency_p99_ms",
                  tailReportable(total.count, 0.99)
                      ? std::to_string(total.p99Ms) + " ms (" + n + ")"
                      : "missing (" + n + ", p99 needs 1000)");
        res.extra("latency_mean_ms", std::to_string(total.meanMs) + " ms");
        res.extra("achieved_ratio",
                  std::to_string(rep.achievedRate / rep.offeredRate));
        res.extra("queue_p99_ms",
                  tailReportable(queue.count, 0.99)
                      ? std::to_string(queue.p99Ms) + " ms"
                      : "missing (" + n + ")");
        res.extra("profile_misses_per_key",
                  std::to_string(missesPerKey(rep.cacheStats.profileMisses,
                                              corpus.size())));
        return res;
    }

    SpanRecorder rec;
    tracedLayerPass(opts, corpus, rec, res);
    setGenerateMetric(res, rec, resolve);
    replay::ReplayReport rep;
    {
        Span s(&rec, "replay.run", -1);
        rep = replayChecked(opts, opts.seconds, res, "traced replay");
    }
    res.set("stage.queue.p50_ms", stage(rep, "queue").p50Ms, "ms");
    res.set("stage.compile.p50_ms", stage(rep, "compile").p50Ms, "ms");
    res.set("stage.profile.p50_ms", stage(rep, "profile").p50Ms, "ms");
    res.set("stage.synth.p50_ms", stage(rep, "synth").p50Ms, "ms");
    setCacheMetrics(res, rep.cacheStats, corpus.size());
    FidelitySummary f;
    {
        Span s(&rec, "gen.score_fidelity", -1);
        f = scoreClones(opts, corpus, "", res.outcome);
    }
    checkPinned(opts, res, "clones", f.digest);
    setFidelityLayerMetrics(res, f);
    finishTraced(res, rec);
    return res;
}

} // namespace perfbench
