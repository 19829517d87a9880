/**
 * @file
 * Timeline sampling for the paper's rate plots.
 *
 * The paper's Figs. 5, 9, 11 and 13 plot MLC/LLC writeback and DMA
 * request *rates* sampled every 10 us, in million transactions per
 * second (MTPS). TimelineRecorder samples registered counters on that
 * cadence and converts deltas to MTPS series.
 */

#ifndef IDIO_HARNESS_TIMELINE_HH
#define IDIO_HARNESS_TIMELINE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/periodic.hh"
#include "sim/simulation.hh"
#include "stats/series.hh"

namespace harness
{

/**
 * Periodic counter-rate sampler.
 */
class TimelineRecorder
{
  public:
    /**
     * @param simulation Owning simulation.
     * @param interval Sampling cadence (paper: 10 us).
     */
    explicit TimelineRecorder(sim::Simulation &simulation,
                              sim::Tick interval = 10 * sim::oneUs);

    /**
     * Track the rate of a monotonically increasing counter; the series
     * records (tick, MTPS) points.
     */
    void trackRate(const std::string &name,
                   std::function<std::uint64_t()> counter);

    /** Begin sampling. */
    void start();

    /** Access a series by name; fatal when unknown. */
    const stats::Series &series(const std::string &name) const;

    /** All series, in registration order. */
    std::vector<const stats::Series *> all() const;

    sim::Tick interval() const { return period; }

  private:
    struct Track
    {
        stats::Series series;
        std::function<std::uint64_t()> counter;
        std::uint64_t last = 0;
    };

    void sample();

    sim::Simulation &simRef;
    sim::Tick period;
    double mtpsScale; // 1 / (interval_seconds * 1e6)
    std::vector<std::unique_ptr<Track>> tracks;
    sim::PeriodicEvent event;
};

} // namespace harness

#endif // IDIO_HARNESS_TIMELINE_HH
