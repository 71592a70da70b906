/**
 * @file
 * Workload "suite": the MiBench-analogue suite through
 * Session::processSuite, cold into an empty artifact cache and warm
 * out of it.
 */

#include <memory>

#include "bench_stats.hh"
#include "layers.hh"
#include "pipeline/run_sink.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace bsyn;

namespace
{

pipeline::SessionOptions
sessionOptions(const Options &opts, const std::string &cacheDir)
{
    pipeline::SessionOptions so;
    so.threads = poolThreads();
    so.cacheDir = cacheDir;
    so.synthesis = synthesisOptions(opts);
    return so;
}

/** One half of a round: processSuite on @p session, timed. */
struct Half
{
    double wallS = 0.0;
    std::string digest;
};

Half
runHalf(pipeline::Session &session,
        const std::vector<workloads::Workload> &corpus, bool warm,
        Outcome &outcome)
{
    pipeline::CollectSink sink;
    auto t0 = Clock::now();
    auto statuses = session.processSuite(corpus, sink);
    Half h;
    h.wallS = secondsSince(t0);
    for (const auto &st : statuses) {
        outcome.attempt();
        if (!st.ok)
            outcome.fail("suite " + st.workload + ": " + st.error);
        else if (warm && !(st.profileCached && st.synthCached))
            outcome.fail("suite " + st.workload + ": warm half missed");
    }
    std::vector<CloneOutput> outputs;
    for (const auto &run : sink.takeRuns())
        outputs.push_back({run.workload.name(), run.profile.serialize(),
                           run.synthetic.cSource});
    h.digest = outputsDigest(outputs);
    return h;
}

/** A cold half into @p dir (empty) and a warm half out of it. */
struct Round
{
    Half cold, warm;
    pipeline::CacheStats coldStats;
};

Round
runRound(const Options &opts, const std::vector<workloads::Workload> &corpus,
         std::unique_ptr<pipeline::Session> cold, const std::string &dir,
         Result &res)
{
    Round r;
    r.cold = runHalf(*cold, corpus, false, res.outcome);
    r.coldStats = cold->cacheStats();
    cold.reset();
    pipeline::Session warm(sessionOptions(opts, dir));
    warm.pool();
    r.warm = runHalf(warm, corpus, true, res.outcome);
    res.outcome.expectEqual("warm suite outputs", r.cold.digest,
                            r.warm.digest);
    checkPinned(opts, res, "outputs", r.cold.digest);
    return r;
}

} // namespace

Result
runSuite(const Options &opts)
{
    Result res;
    std::vector<workloads::Workload> corpus;
    std::unique_ptr<ScratchDir> dir;
    std::unique_ptr<pipeline::Session> session;
    // Set-up: resolve the corpus, build the Session and its pool over
    // a fresh, empty cache directory. Tearing down the previous ones is
    // not part of it. setup_s is the median of the set-ups before the
    // measured rounds: spread over the run, they sample the host's CPUs
    // as the rounds do, where a burst at the start would sample one.
    auto setup = [&] {
        session.reset();
        dir.reset();
        releaseFreeMemory();
        auto t0 = Clock::now();
        corpus = workloads::mibenchSuite();
        dir = std::make_unique<ScratchDir>(opts, "suite");
        session = std::make_unique<pipeline::Session>(
            sessionOptions(opts, dir->path()));
        session->pool();
        return secondsSince(t0);
    };
    setup();

    // Warm-up round, discarded.
    Round warmup = runRound(opts, corpus, std::move(session), dir->path(), res);

    if (!opts.trace) {
        std::vector<double> setups, cold, warm, rss;
        auto t0 = Clock::now();
        do {
            setups.push_back(setup());
            resetPeakRss();
            Round r = runRound(opts, corpus, std::move(session), dir->path(),
                               res);
            rss.push_back(peakRssMb());
            cold.push_back(r.cold.wallS);
            warm.push_back(r.warm.wallS);
        } while (secondsSince(t0) < opts.seconds || cold.size() < 3);
        res.set("setup_s", median(setups), "s");
        res.set("batch_s", median(cold), "s");
        res.set("peak_rss_mb", median(rss), "MiB");
        FidelitySummary f =
            scoreClones(opts, corpus, dir->path(), res.outcome);
        checkPinned(opts, res, "clones", f.digest);
        setFidelityMetrics(res, f);
        res.extra("warm_batch_s", std::to_string(median(warm)) + " s");
        res.extra("rounds", std::to_string(cold.size()) +
                                " (batch_s spread " +
                                std::to_string(relativeSpread(cold)) + ")");
        return res;
    }

    // Traced: the per-layer split must reproduce processSuite's bytes.
    SpanRecorder rec;
    auto outputs = tracedLayerPass(opts, corpus, rec, res);
    res.outcome.expectEqual("traced suite outputs", warmup.cold.digest,
                            outputsDigest(outputs));
    setStageMetricsFromSpans(res, rec.spans());
    setCacheMetrics(res, warmup.coldStats, corpus.size());
    setGenerateMetric(res, rec, [&] { corpus = workloads::mibenchSuite(); });
    FidelitySummary f;
    {
        Span s(&rec, "gen.score_fidelity", -1);
        f = scoreClones(opts, corpus, dir->path(), res.outcome);
    }
    checkPinned(opts, res, "clones", f.digest);
    setFidelityLayerMetrics(res, f);
    finishTraced(res, rec);
    return res;
}

} // namespace perfbench
