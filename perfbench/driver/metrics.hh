/**
 * @file
 * Metric values, summary statistics and the result-line format.
 */

#ifndef IDIO_PERFBENCH_DRIVER_METRICS_HH
#define IDIO_PERFBENCH_DRIVER_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * True when @p name is a valid metric name: 1 to 64 characters from
 * [A-Za-z0-9_.-], starting with a letter or digit.
 */
bool validMetricName(const std::string &name);

/** True when @p unit is 1 to 16 characters from [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile of the ascending-sorted @p sorted
 * (0 when empty).
 */
std::uint64_t nearestRank(const std::vector<std::uint64_t> &sorted,
                          double pct);

/**
 * The highest of the percentiles 99, 98, 95 and 90 that leaves at
 * least ten of @p n samples beyond it (50 when none does).
 */
double tailPercentile(std::size_t n);

/** Shortest decimal text that reads back as exactly @p v. */
std::string formatNumber(double v);

/** JSON string literal for @p s (quotes and backslashes escaped). */
std::string jsonString(const std::string &s);

/**
 * The benchmark's final output line:
 * {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
 */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/** 64-bit FNV-1a, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // IDIO_PERFBENCH_DRIVER_METRICS_HH
