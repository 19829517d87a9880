/**
 * @file
 * Private per-core cache level (used for both L1D and MLC).
 *
 * PrivateCache is a thin wrapper of TagArray plus the statistics the
 * paper's figures need; the inter-level transition logic lives in
 * MemoryHierarchy so each flow (Figs. 1 and 2) reads as one function.
 */

#ifndef IDIO_CACHE_PRIVATE_CACHE_HH
#define IDIO_CACHE_PRIVATE_CACHE_HH

#include <string>

#include "cache/tag_array.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace cache
{

/**
 * A private, write-back, write-allocate cache level.
 */
class PrivateCache : public sim::SimObject
{
    // Declared first: members initialise in declaration order and the
    // counters below reference the group.
    stats::StatGroup statGroup;

  public:
    PrivateCache(sim::Simulation &simulation, const std::string &name,
                 std::uint64_t sizeBytes, std::uint32_t assoc,
                 const std::string &replacement);

    /** Underlying tag array. */
    TagArray &tags() { return array; }
    const TagArray &tags() const { return array; }

    /** Lookup without stat side effects. */
    LineRef probe(sim::Addr addr) { return array.lookup(addr); }

    /** True when the (aligned) address is cached. */
    bool contains(sim::Addr addr) const { return array.contains(addr); }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Event counters used by the figure harnesses. */
    stats::Counter hits;
    stats::Counter misses;
    stats::Counter fills;
    stats::Counter prefetchFills;
    stats::Counter writebacks;      ///< dirty evictions sent downstream
    stats::Counter cleanEvictions;  ///< clean victim-cache insertions
    stats::Counter pcieInvals;      ///< invalidations by inbound DMA
    stats::Counter selfInvals;      ///< self-invalidate instruction
    stats::Counter backInvals;      ///< directory capacity back-invals
    /** @} */

  private:
    TagArray array;
};

} // namespace cache

#endif // IDIO_CACHE_PRIVATE_CACHE_HH
