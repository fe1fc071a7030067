/**
 * @file
 * Small helpers shared by the benchmark: a monotonic clock in
 * milliseconds and the order statistics every reported timing uses.
 */

#ifndef PERFBENCH_BENCH_UTIL_H
#define PERFBENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** Linear-interpolated quantile (numpy's default); 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_H
