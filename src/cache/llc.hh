/**
 * @file
 * Shared non-inclusive LLC with DDIO way partition.
 *
 * The LLC behaves as a victim cache for the private MLCs: demand fills
 * move data out of the LLC into the requesting MLC ("tag moves to the
 * directory", paper Fig. 2), and MLC evictions allocate back into *any*
 * way — the mechanism behind DMA bloating. Inbound PCIe writes
 * write-allocate only into the first `ddioWays` ways of each set but
 * update lines in place wherever they are found (paper Fig. 1).
 */

#ifndef IDIO_CACHE_LLC_HH
#define IDIO_CACHE_LLC_HH

#include <string>

#include "cache/tag_array.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace cache
{

/**
 * The shared last-level cache.
 */
class NonInclusiveLlc : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    NonInclusiveLlc(sim::Simulation &simulation, const std::string &name,
                    std::uint64_t sizeBytes, std::uint32_t assoc,
                    std::uint32_t ddioWays,
                    const std::string &replacement);

    TagArray &tags() { return array; }
    const TagArray &tags() const { return array; }

    /** Way mask covering the DDIO ways. */
    WayMask ddioMask() const { return lowWays(nDdioWays); }

    std::uint32_t ddioWays() const { return nDdioWays; }

    /**
     * Re-partition at runtime (IAT-style dynamic DDIO allocation).
     * Lines already resident outside the new partition are untouched;
     * only future write-allocations are affected, as on real CAT
     * reconfiguration. (Their ddioAlloc marks are dropped so the
     * way-confinement invariant keeps holding against the new mask.)
     */
    void setDdioWays(std::uint32_t ways);

    /** True when @p way is one of the DDIO ways. */
    bool isDdioWay(std::uint32_t way) const { return way < nDdioWays; }

    LineRef probe(sim::Addr addr) { return array.lookup(addr); }

    bool contains(sim::Addr addr) const { return array.contains(addr); }

    /** Valid lines currently in DDIO ways. */
    std::uint64_t ddioOccupancy() const;

    /**
     * Valid I/O-provenance lines sitting *outside* the DDIO ways —
     * the paper's DMA-bloating footprint.
     */
    std::uint64_t bloatedIoOccupancy() const;

    /** Total valid lines. */
    std::uint64_t occupancy() const { return array.countValid(); }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter ddioAllocs;      ///< PCIe write-allocations
    stats::Counter ddioUpdates;     ///< PCIe in-place updates
    stats::Counter ddioWayEvictions;///< victims displaced by DDIO allocs
    stats::Counter victimInserts;   ///< allocations from MLC evictions
    stats::Counter writebacks;      ///< dirty evictions to DRAM (LLC WB)
    stats::Counter cleanDrops;      ///< clean evictions (no DRAM write)
    stats::Counter demandMoves;     ///< data moved out to an MLC
    stats::Counter selfInvals;      ///< self-invalidate drops
    /** @} */

  private:
    std::uint32_t nDdioWays;
    TagArray array;
};

} // namespace cache

#endif // IDIO_CACHE_LLC_HH
