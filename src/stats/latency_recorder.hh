/**
 * @file
 * Exact-percentile latency recording.
 *
 * The paper reports 50th and 99th percentile per-packet latencies
 * (Fig. 12). LatencyRecorder stores every sample so percentiles are
 * exact; sample counts in our experiments (up to a few million packets)
 * make this affordable.
 */

#ifndef IDIO_STATS_LATENCY_RECORDER_HH
#define IDIO_STATS_LATENCY_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stat.hh"

namespace stats
{

/**
 * Exact percentile of ascending @p sorted samples by the nearest-rank
 * method: the smallest sample with at least ceil(p/100 * n) samples
 * at or below it.
 * @param p Percentile in [0, 100]; e.g.\ 99.0 for p99.
 * @return 0 when @p sorted is empty.
 */
std::uint64_t nearestRank(const std::vector<std::uint64_t> &sorted,
                          double p);

/**
 * Stores raw latency samples (in ticks) and answers exact percentile
 * queries. value() reports the mean.
 */
class LatencyRecorder : public Stat
{
  public:
    using Stat::Stat;

    /** Record one latency sample (ticks). */
    void
    sample(std::uint64_t ticks)
    {
        samples.push_back(ticks);
        sorted = false;
    }

    /** Number of recorded samples. */
    std::size_t count() const { return samples.size(); }

    /** Exact percentile of the samples; see nearestRank(). */
    std::uint64_t percentile(double p) const;

    /** Convenience accessors. @{ */
    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p99() const { return percentile(99.0); }
    std::uint64_t p999() const { return percentile(99.9); }
    /** @} */

    /** Mean sample (0 when empty). */
    double mean() const;

    /** Largest sample (0 when empty). */
    std::uint64_t maxSample() const;

    /**
     * @{ Raw sample access (checkpoint save/restore). Samples are kept
     * in insertion order until the first percentile query sorts them,
     * so round-tripping the raw vector preserves bit-identical state.
     */
    const std::vector<std::uint64_t> &rawSamples() const
    {
        return samples;
    }

    void
    restore(std::vector<std::uint64_t> s)
    {
        samples = std::move(s);
        sorted = false;
    }
    /** @} */

    double value() const override { return mean(); }

    void
    reset() override
    {
        samples.clear();
        sorted = false;
    }

  private:
    mutable std::vector<std::uint64_t> samples;
    mutable bool sorted = false;

    void ensureSorted() const;
};

} // namespace stats

#endif // IDIO_STATS_LATENCY_RECORDER_HH
