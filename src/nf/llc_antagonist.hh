/**
 * @file
 * LLCAntagonist workload (paper Table II).
 *
 * "Allocate a variable size buffer and randomly access elements":
 * the co-running application used to create LLC contention and to
 * measure the isolation IDIO provides. The paper shrinks the
 * antagonist core's MLC to 256 KB so its working set spills into the
 * LLC; that override lives in HierarchyConfig::mlcSizeOverride.
 */

#ifndef IDIO_NF_LLC_ANTAGONIST_HH
#define IDIO_NF_LLC_ANTAGONIST_HH

#include <string>

#include "cpu/core.hh"
#include "mem/phys_alloc.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace nf
{

/**
 * Random-access LLC thrasher.
 */
class LlcAntagonist : public cpu::Workload, public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /** @param bufferBytes Working-set bytes. */
    LlcAntagonist(sim::Simulation &simulation, const std::string &name,
                  cpu::Core &core, mem::PhysAllocator &alloc,
                  std::uint64_t bufferBytes);

    /** Random accesses per atomic step (the only value used). */
    static constexpr std::uint32_t accessesPerStep = 64;

    /** Fraction of accesses that are writes (the only value used). */
    static constexpr double writeFraction = 0.3;

    /** Compute cost per access, ns (the only value used). */
    static constexpr double perAccessCostNs = 2.0;

    /**
     * Touch the buffer sequentially (outside simulated time) so stats
     * collection starts from a warm cache, as the paper does.
     */
    void warmUp();

    /** Bind to the core and start. */
    void launch();

    sim::Tick step(cpu::Core &core) override;
    std::string label() const override { return name(); }

    /**
     * Mean ticks per access — the CPI proxy the paper's Fig. 10
     * co-running discussion reports.
     */
    double ticksPerAccess() const;

    /** @{ Counters. */
    stats::Counter accesses;
    stats::Counter accessTicks;
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    cpu::Core &core;
    sim::Addr base;
    std::uint64_t lines;
    sim::Rng rng;
};

} // namespace nf

#endif // IDIO_NF_LLC_ANTAGONIST_HH
