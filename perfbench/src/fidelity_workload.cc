/**
 * @file
 * Workload "fidelity-presets": one instance of every published
 * generator preset, scored by gen::scoreFidelity with timing at -O2.
 */

#include <memory>

#include "bench_stats.hh"
#include "gen/registry.hh"
#include "layers.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace bsyn;

namespace
{

/** Score @p corpus on @p session (timing at -O2), timed. */
gen::FidelityReport
scoreRound(pipeline::Session &session,
           const std::vector<workloads::Workload> &corpus, double &wallS)
{
    gen::FidelityOptions fo;
    fo.synthesis = session.options().synthesis;
    auto t0 = Clock::now();
    gen::FidelityReport rep = gen::scoreFidelity(session, corpus, fo);
    wallS = secondsSince(t0);
    return rep;
}

} // namespace

Result
runFidelityPresets(const Options &opts)
{
    Result res;
    std::vector<workloads::Workload> corpus;
    std::unique_ptr<pipeline::Session> session;
    // Set-up: generate the presets, build the Session and its pool.
    // Tearing down the previous Session is not part of it. setup_s is
    // the median of the set-ups before the measured rounds.
    auto setup = [&] {
        session.reset();
        releaseFreeMemory();
        auto t0 = Clock::now();
        corpus = gen::Registry::global().allPresets(opts.seed);
        pipeline::SessionOptions so;
        so.threads = poolThreads();
        so.synthesis = synthesisOptions(opts);
        session = std::make_unique<pipeline::Session>(so);
        session->pool();
        return secondsSince(t0);
    };
    setup();

    // Warm-up round, discarded; its results are the reference every
    // later round must reproduce byte for byte.
    double wallS = 0.0;
    const FidelitySummary ref =
        summarizeFidelity(scoreRound(*session, corpus, wallS), res.outcome);
    const pipeline::CacheStats refStats = session->cacheStats();
    checkPinned(opts, res, "results", ref.digest);

    if (!opts.trace) {
        std::vector<double> setups, walls, rss;
        FidelitySummary last;
        auto t0 = Clock::now();
        do {
            setups.push_back(setup());
            resetPeakRss();
            auto rep = scoreRound(*session, corpus, wallS);
            rss.push_back(peakRssMb());
            walls.push_back(wallS);
            last = summarizeFidelity(rep, res.outcome);
            res.outcome.expectEqual("fidelity results", ref.digest,
                                    last.digest);
        } while (secondsSince(t0) < opts.seconds || walls.size() < 3);
        res.set("setup_s", median(setups), "s");
        res.set("batch_s", median(walls), "s");
        res.set("peak_rss_mb", median(rss), "MiB");
        setFidelityMetrics(res, last);
        res.extra("rounds", std::to_string(walls.size()) +
                                " (batch_s spread " +
                                std::to_string(relativeSpread(walls)) + ")");
        return res;
    }

    SpanRecorder rec;
    tracedLayerPass(opts, corpus, rec, res);
    setStageMetricsFromSpans(res, rec.spans());
    setCacheMetrics(res, refStats, corpus.size());
    setGenerateMetric(res, rec, [&] {
        corpus = gen::Registry::global().allPresets(opts.seed);
    });
    setup();
    FidelitySummary f;
    {
        Span s(&rec, "gen.score_fidelity", -1);
        f = summarizeFidelity(scoreRound(*session, corpus, wallS), res.outcome);
    }
    res.outcome.expectEqual("traced fidelity results", ref.digest, f.digest);
    setFidelityLayerMetrics(res, f);
    finishTraced(res, rec);
    return res;
}

} // namespace perfbench
