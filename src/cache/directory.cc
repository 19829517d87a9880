/**
 * @file
 * MlcDirectory implementation.
 */

#include "directory.hh"

#include "sim/checker/invariant_checker.hh"
#include "sim/simulation.hh"

namespace cache
{

namespace
{

std::uint32_t
directorySets(std::uint64_t numEntries, std::uint32_t assoc)
{
    if (assoc == 0 || assoc > 64)
        sim::fatal("directoryAssoc %u out of range [1, 64]", assoc);
    std::uint64_t sets = numEntries / assoc;
    if (sets == 0)
        sets = 1;
    if (sets > 0xffffffffull)
        sim::fatal("directory of %llu entries has too many sets",
                   (unsigned long long)numEntries);
    return static_cast<std::uint32_t>(sets);
}

} // anonymous namespace

MlcDirectory::MlcDirectory(sim::Simulation &simulation,
                           const std::string &name,
                           std::uint64_t numEntries, std::uint32_t assoc,
                           ReplKind replacement, std::uint32_t numCores)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      lookups(statGroup, "lookups", "directory lookups"),
      insertions(statGroup, "insertions", "directory insertions"),
      capacityEvictions(statGroup, "capacityEvictions",
                        "entries displaced by capacity pressure"),
      cores(numCores),
      array(TagArray::withSets(directorySets(numEntries, assoc), assoc,
                               replacement,
                               /*withOwners=*/true))
{
    SIM_ASSERT(numCores >= 1 && numCores <= 64,
               "directory owners must fit a 64-bit sharer word");
}

DirectoryVictim
MlcDirectory::add(sim::CoreId core, sim::Addr addr)
{
    // A snoop filter probes before it inserts, and `lookups` counts
    // that probe; the model skips it, as the caller has just seen the
    // line untracked.
    ++lookups;
    if constexpr (sim::InvariantChecker::compiledIn) {
        SIM_ASSERT(core < cores, "directory add for a nonexistent core");
        SIM_ASSERT(!array.contains(addr),
                   "directory add of a line an MLC already holds");
    }

    DirectoryVictim victim;
    const LineRef slot = array.findFillSlot(addr);
    if (slot.valid()) {
        victim.valid = true;
        victim.addr = slot.addr();
        victim.owner = array.owner(slot);
        ++capacityEvictions;
    }
    array.fill(slot, addr, false, false);
    array.owner(slot) = static_cast<std::uint8_t>(core);
    ++insertions;
    return victim;
}

void
MlcDirectory::remove(sim::CoreId core, sim::Addr addr)
{
    const LineRef ref = array.lookup(addr);
    if (ref && array.owner(ref) == core)
        array.invalidate(ref);
}

void
MlcDirectory::serialize(ckpt::Serializer &s) const
{
    array.serialize(s);
}

void
MlcDirectory::unserialize(ckpt::Deserializer &d)
{
    array.unserialize(d, cores);
}

} // namespace cache
