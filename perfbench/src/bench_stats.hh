/**
 * @file
 * The benchmark's own arithmetic: medians, quartiles, the minimum-sample
 * rule for tail percentiles, run-to-run spread and cache misses per
 * key. Kept free of any bsyn dependency so the unit tests exercise
 * exactly what the benchmark reports.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the two middle values for an even count).
 *  0 for an empty vector. */
double median(std::vector<double> v);

/**
 * First, second and third quartile with the interpolation Python's
 * statistics.quantiles(values, n=4) uses (method "exclusive"), so the
 * spreads the benchmark prints match ones computed with Python.
 * Needs at least two values; a single value is returned three times.
 */
std::array<double, 3> quartiles(std::vector<double> v);

/** Interquartile distance as a share of the median (0 when the median
 *  is 0 or there are fewer than two values). */
double relativeSpread(const std::vector<double> &v);

/** Samples needed beyond a percentile before it is reported. */
constexpr uint64_t kMinTailSamples = 10;

/** Whether a @p q quantile over @p count samples has enough samples
 *  beyond it to be reported: a p99 needs 1000 samples. */
bool tailReportable(uint64_t count, double q);

/** Cache misses per distinct key: 1 means every key was computed once. */
double missesPerKey(uint64_t misses, uint64_t distinctKeys);

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
