/**
 * @file
 * The benchmark's three workloads. Each runs in one process, builds its
 * inputs from the run's seed, checks its outputs and fills a Result:
 * end-to-end metrics when untraced, per-layer metrics when traced.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench
{

/** The 32 MiBench-analogue instances through Session::processSuite:
 *  a cold half into an empty artifact cache, then a warm half that
 *  reads it back. */
Result runSuite(const Options &opts);

/** One instance of every generator preset, scored by
 *  gen::scoreFidelity with timing at -O2. */
Result runFidelityPresets(const Options &opts);

/** Open-loop replay of a few hot keys into one warm Session. */
Result runReplayHot(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
