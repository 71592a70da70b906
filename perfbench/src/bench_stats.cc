#include "bench_stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {0.0, 0.0, 0.0};
    if (v.size() == 1)
        return {v[0], v[0], v[0]};
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive"): position i*(n+1)/4,
    // clamped to [1, n-1], interpolated in exact integer steps.
    const long n = static_cast<long>(v.size());
    const long m = n + 1;
    std::array<double, 3> out{};
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        out[i - 1] = (v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4.0;
    }
    return out;
}

double
relativeSpread(const std::vector<double> &v)
{
    double med = median(v);
    if (v.size() < 2 || med == 0.0)
        return 0.0;
    auto q = quartiles(v);
    return (q[2] - q[0]) / std::fabs(med);
}

bool
tailReportable(uint64_t count, double q)
{
    if (count == 0)
        return false;
    auto rank = static_cast<uint64_t>(std::ceil(q * double(count) - 1e-9));
    return count - std::min(rank, count) >= kMinTailSamples;
}

double
missesPerKey(uint64_t misses, uint64_t distinctKeys)
{
    return distinctKeys ? double(misses) / double(distinctKeys) : 0.0;
}

} // namespace perfbench
