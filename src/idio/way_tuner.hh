/**
 * @file
 * IAT-style dynamic DDIO way allocation (related-work comparator).
 *
 * IAT ("Don't forget the I/O when allocating your LLC", ISCA'21 —
 * paper reference [41]) re-configures the number of LLC ways DDIO may
 * write-allocate into, based on runtime monitoring: grow the I/O
 * partition when inbound traffic leaks out of it, shrink it when the
 * CPU side misses heavily and the leak is quiet. The paper positions
 * IDIO against exactly this class of dynamic-DDIO policies (they
 * "are not able to fine-tune the destination of the inbound data and
 * still suffer from the penalty of a high MLC writeback rate"), so a
 * faithful reproduction needs the comparator: see
 * bench/ablation_way_tuner.
 */

#ifndef IDIO_IDIO_WAY_TUNER_HH
#define IDIO_IDIO_WAY_TUNER_HH

#include "cache/hierarchy.hh"
#include "sim/periodic.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace idio
{

/**
 * Periodic controller adjusting the LLC's DDIO partition.
 */
class DdioWayTuner : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    DdioWayTuner(sim::Simulation &simulation, const std::string &name,
                 cache::MemoryHierarchy &hierarchy);

    /**
     * Re-evaluation cadence: fast enough to react within a ~124 us
     * burst. The only value its one user (ablation_way_tuner) runs.
     */
    static constexpr sim::Tick interval = 10 * sim::oneUs;

    /**
     * @{ Minimum / maximum DDIO ways the tuner may configure. These and
     * the thresholds below are the only values any workload uses.
     */
    static constexpr std::uint32_t minWays = 1;
    static constexpr std::uint32_t maxWays = 8;
    /** @} */

    /**
     * Grow the partition when more than this many DDIO-way victims
     * were displaced during the last interval (DMA leak pressure).
     */
    static constexpr std::uint64_t growLeakThreshold = 64;

    /**
     * Shrink when the leak was below this and the CPU side missed in
     * the LLC more than missThreshold times.
     */
    static constexpr std::uint64_t shrinkLeakThreshold = 8;
    static constexpr std::uint64_t missThreshold = 256;

    /** Begin the monitoring loop. */
    void start();

    /** @{ Counters. */
    stats::Counter grows;
    stats::Counter shrinks;
    stats::Counter evaluations;
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    void evaluate();

    cache::MemoryHierarchy &hier;
    std::uint64_t lastLeak = 0;
    std::uint64_t lastMisses = 0;
    sim::PeriodicEvent tick;
};

} // namespace idio

#endif // IDIO_IDIO_WAY_TUNER_HH
