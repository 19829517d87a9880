/**
 * @file
 * LatencyRecorder implementation.
 */

#include "latency_recorder.hh"

#include <algorithm>
#include <cmath>

namespace stats
{

void
LatencyRecorder::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

std::uint64_t
nearestRank(const std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

std::uint64_t
LatencyRecorder::percentile(double p) const
{
    ensureSorted();
    return nearestRank(samples, p);
}

double
LatencyRecorder::mean() const
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (auto s : samples)
        sum += static_cast<double>(s);
    return sum / static_cast<double>(samples.size());
}

std::uint64_t
LatencyRecorder::maxSample() const
{
    if (samples.empty())
        return 0;
    ensureSorted();
    return samples.back();
}

} // namespace stats
