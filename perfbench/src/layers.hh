/**
 * @file
 * The per-layer split. Over one workload's corpus it makes, per
 * instance, the calls a Session makes to profile and clone it (compile
 * at -O0, profile, synthesize) and then extra calls into each layer
 * (the -O2 pipeline, lowering, predecode, every engine mode, the
 * artifact cache), each wrapped in a span when a recorder is given.
 * The per-layer metrics are computed from those spans.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <vector>

#include "harness.hh"
#include "pipeline/session.hh"
#include "spans.hh"

namespace perfbench
{

/** What one core pass (compile -> profile -> synthesize) produced. */
struct CoreRun
{
    std::vector<CloneOutput> outputs; ///< corpus order
    double wallS = 0.0;
    uint64_t measureCalls = 0; ///< calibration candidates measured
    uint64_t phases = 0;       ///< detected phases, summed
};

/**
 * Compile, profile and synthesize every instance of @p corpus on a
 * fresh Session (the same calls, options and per-instance seeds as
 * Session::processSuite, minus the artifact cache), fanned across the
 * Session's pool. Spans go to @p rec when it is not null.
 */
CoreRun runCore(const Options &opts,
                const std::vector<bsyn::workloads::Workload> &corpus,
                SpanRecorder *rec, Outcome &outcome);

/**
 * The traced half of a run: core passes alternately untraced and traced
 * until opts.seconds have passed (at least one pair), then one traced
 * pass of extra layer calls. Fills every per-layer metric that the
 * corpus alone determines, plus trace_overhead_frac, and returns the
 * outputs of the last traced core pass. Spans accumulate in @p rec.
 */
std::vector<CloneOutput>
tracedLayerPass(const Options &opts,
                const std::vector<bsyn::workloads::Workload> &corpus,
                SpanRecorder &rec, Result &res);

/** Per-request stage medians, from the spans of a traced core pass. */
void setStageMetricsFromSpans(Result &res,
                              const std::vector<SpanRecord> &spans);

/** Cache misses per distinct key and the decode-memo hit ratio of a
 *  workload round's Session. */
void setCacheMetrics(Result &res, const bsyn::pipeline::CacheStats &cs,
                     uint64_t distinctKeys);

/** gen.generate_s: median time of a few runs of @p generate, which
 *  resolves the workload's corpus; one more run is traced. */
void setGenerateMetric(Result &res, SpanRecorder &rec,
                       const std::function<void()> &generate);

/** <layer>.self_s of every layer, and the Chrome trace of @p rec. */
void finishTraced(Result &res, const SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
