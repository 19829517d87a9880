/**
 * @file
 * Main-memory model.
 *
 * DramModel charges a fixed device latency per access plus queueing
 * delay from a bandwidth token bucket (one "slot" per cacheline at the
 * peak bandwidth, shared across channels). It maintains the
 * DRAM read/write transaction counters the paper plots in Figs. 4 and
 * 10.
 */

#ifndef IDIO_MEM_DRAM_HH
#define IDIO_MEM_DRAM_HH

#include <cstdint>
#include <string>

#include "mem/access.hh"
#include "mem/addr.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace mem
{

/**
 * Latency/bandwidth DRAM model with read/write accounting.
 */
class DramModel : public sim::SimObject
{
  public:
    DramModel(sim::Simulation &simulation, const std::string &name);

    /** Device access latency (row hit average), ns (paper Table I). */
    static constexpr double latencyNs = 60.0;

    /** Peak bandwidth, GB/s (Table I's DDR4-3200, 3 channels). */
    static constexpr double bandwidthGBps = 60.0;

    /**
     * Perform one cacheline access.
     *
     * @param type Read or Write.
     * @return latency in ticks, including queueing delay.
     */
    sim::Tick access(AccessType type);

    /** Number of cacheline reads served. */
    std::uint64_t readCount() const { return reads.get(); }

    /** Number of cacheline writes served. */
    std::uint64_t writeCount() const { return writes.get(); }

    /** Read bandwidth consumed so far, bytes. */
    std::uint64_t readBytes() const { return reads.get() * lineSize; }

    /** Write bandwidth consumed so far, bytes. */
    std::uint64_t writeBytes() const { return writes.get() * lineSize; }

    /** Stats group (for timeline samplers). */
    stats::StatGroup &stats() { return statGroup; }

    /**
     * Discard accumulated channel occupancy. Used after warm-up
     * phases that run "outside" simulated time so that measurement
     * does not start against a backlogged channel.
     */
    void resetTiming() { nextFree = 0; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    sim::Tick nextFree = 0; // earliest tick the channel is free

    stats::StatGroup statGroup;
    stats::Counter reads;
    stats::Counter writes;
    stats::Counter queuedTicks;
};

} // namespace mem

#endif // IDIO_MEM_DRAM_HH
