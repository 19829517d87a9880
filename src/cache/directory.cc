/**
 * @file
 * MlcDirectory implementation.
 */

#include "directory.hh"

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
                           const std::string &replacement)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      lookups(statGroup, "lookups", "directory lookups"),
      insertions(statGroup, "insertions", "directory insertions"),
      capacityEvictions(statGroup, "capacityEvictions",
                        "entries displaced by capacity pressure"),
      array(TagArray::withSets(directorySets(numEntries, assoc), assoc,
                               parseReplacement(replacement),
                               /*withSharers=*/true))
{
}

DirectoryVictim
MlcDirectory::add(sim::CoreId core, sim::Addr addr)
{
    ++lookups;
    const std::uint64_t bit = std::uint64_t(1) << core;
    if (const LineRef ref = array.lookup(addr)) {
        array.sharers(ref) |= bit;
        array.touch(ref);
        return {};
    }

    DirectoryVictim victim;
    const LineRef slot = array.findFillSlot(addr);
    if (slot.valid()) {
        victim.valid = true;
        victim.addr = slot.addr();
        victim.sharers = array.sharers(slot);
        ++capacityEvictions;
    }
    array.fill(slot, addr, false, false);
    array.sharers(slot) = bit;
    ++insertions;
    return victim;
}

void
MlcDirectory::remove(sim::CoreId core, sim::Addr addr)
{
    const LineRef ref = array.lookup(addr);
    if (!ref)
        return;
    std::uint64_t &sharers = array.sharers(ref);
    sharers &= ~(std::uint64_t(1) << core);
    if (sharers == 0)
        array.invalidate(ref);
}

void
MlcDirectory::removeAll(sim::Addr addr)
{
    if (const LineRef ref = array.lookup(addr))
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
    array.unserialize(d);
}

} // namespace cache
