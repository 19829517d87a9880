/**
 * @file
 * Excl-MLC directory (snoop filter).
 *
 * The non-inclusive Skylake LLC keeps a directory of tags for every
 * line that is valid in some MLC ("Excl MLC" in paper Fig. 1). The
 * directory lets inbound PCIe writes find and invalidate MLC copies
 * without broadcasting. Capacity is finite: inserting into a full set
 * evicts an entry, whose MLC copies must be back-invalidated by the
 * hierarchy.
 */

#ifndef IDIO_CACHE_DIRECTORY_HH
#define IDIO_CACHE_DIRECTORY_HH

#include <cstdint>
#include <string>

#include "cache/tag_array.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace cache
{

/** An entry displaced by directory capacity pressure. */
struct DirectoryVictim
{
    bool valid = false;
    sim::Addr addr = 0;
    std::uint64_t sharers = 0;
};

/**
 * Set-associative snoop-filter directory over MLC-resident lines.
 */
class MlcDirectory : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param numEntries Total tracked-line capacity.
     * @param assoc Directory associativity.
     */
    MlcDirectory(sim::Simulation &simulation, const std::string &name,
                 std::uint64_t numEntries, std::uint32_t assoc,
                 ReplKind replacement);

    /** Sharer bit-vector for @p addr (0 when untracked). */
    std::uint64_t
    sharersOf(sim::Addr addr) const
    {
        return array.sharersOf(addr);
    }

    /** True when any MLC holds @p addr. */
    bool
    isTracked(sim::Addr addr) const
    {
        return sharersOf(addr) != 0;
    }

    /**
     * Record that @p core 's MLC now holds @p addr.
     *
     * @return a victim entry (valid=true) when an unrelated line had to
     *         be displaced to make room; the caller must back-
     *         invalidate the victim's sharers.
     */
    DirectoryVictim add(sim::CoreId core, sim::Addr addr);

    /** Record that @p core 's MLC dropped @p addr. */
    void remove(sim::CoreId core, sim::Addr addr);

    /** Drop the whole entry for @p addr (all sharers). */
    void removeAll(sim::Addr addr);

    /** Number of tracked lines. */
    std::uint64_t trackedLines() const { return array.countValid(); }

    /** Read-only tag-array access (invariant checker, tests). */
    const TagArray &tags() const { return array; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter lookups;
    stats::Counter insertions;
    stats::Counter capacityEvictions;
    /** @} */

  private:
    TagArray array;
};

} // namespace cache

#endif // IDIO_CACHE_DIRECTORY_HH
