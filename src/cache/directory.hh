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
    sim::CoreId owner = 0;
};

/**
 * Set-associative snoop-filter directory over MLC-resident lines.
 * Migratory coherence keeps one MLC copy of a line, so an entry names
 * one owner core.
 */
class MlcDirectory : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /** ownerOf() of an untracked line. */
    static constexpr int noOwner = -1;

    /**
     * @param numEntries Total tracked-line capacity.
     * @param assoc Directory associativity.
     * @param numCores Cores whose MLCs it tracks, in [1, 64] (a
     *        checkpoint writes the owner as a bit of a 64-bit word).
     */
    MlcDirectory(sim::Simulation &simulation, const std::string &name,
                 std::uint64_t numEntries, std::uint32_t assoc,
                 ReplKind replacement, std::uint32_t numCores);

    /** The entry tracking @p addr; null when untracked. */
    LineRef lookup(sim::Addr addr) { return array.lookup(addr); }

    /** Owner core of the valid entry @p entry. */
    sim::CoreId owner(const LineRef &entry) const
    {
        return array.owner(entry);
    }

    /** Drop the valid entry @p entry. */
    void drop(const LineRef &entry) { array.invalidate(entry); }

    /** Owner core of @p addr, or noOwner when untracked. */
    int ownerOf(sim::Addr addr) const { return array.ownerOf(addr); }

    /** True when some MLC holds @p addr. */
    bool
    isTracked(sim::Addr addr) const
    {
        return array.contains(addr);
    }

    /**
     * Record that @p core 's MLC now holds @p addr, which no MLC held
     * (every caller has just seen the line untracked; checker builds
     * assert it).
     *
     * @return a victim entry (valid=true) when an unrelated line had to
     *         be displaced to make room; the caller must back-
     *         invalidate the victim's owner.
     */
    DirectoryVictim add(sim::CoreId core, sim::Addr addr);

    /** Record that @p core 's MLC dropped @p addr. */
    void remove(sim::CoreId core, sim::Addr addr);

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
    std::uint32_t cores;
    TagArray array;
};

} // namespace cache

#endif // IDIO_CACHE_DIRECTORY_HH
