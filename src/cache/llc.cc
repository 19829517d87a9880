/**
 * @file
 * NonInclusiveLlc implementation.
 */

#include "llc.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace cache
{

NonInclusiveLlc::NonInclusiveLlc(sim::Simulation &simulation,
                                 const std::string &name,
                                 std::uint64_t sizeBytes,
                                 std::uint32_t assoc,
                                 std::uint32_t ddioWays,
                                 const std::string &replacement)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      hits(statGroup, "hits", "demand hits"),
      misses(statGroup, "misses", "demand misses"),
      ddioAllocs(statGroup, "ddioAllocs",
                 "PCIe write-allocations into DDIO ways"),
      ddioUpdates(statGroup, "ddioUpdates", "PCIe in-place updates"),
      ddioWayEvictions(statGroup, "ddioWayEvictions",
                       "victims displaced by DDIO write-allocations"),
      victimInserts(statGroup, "victimInserts",
                    "allocations caused by MLC evictions"),
      writebacks(statGroup, "writebacks",
                 "dirty evictions written to DRAM (LLC WB)"),
      cleanDrops(statGroup, "cleanDrops",
                 "clean evictions dropped without a DRAM write"),
      demandMoves(statGroup, "demandMoves",
                  "lines moved out to an MLC on demand/prefetch fill"),
      selfInvals(statGroup, "selfInvals",
                 "lines dropped by the self-invalidate instruction"),
      nDdioWays(ddioWays),
      array(sizeBytes, assoc, parseReplacement(replacement))
{
    if (ddioWays > assoc)
        sim::fatal("ddioWays %u exceeds LLC associativity %u", ddioWays,
                   assoc);
}

void
NonInclusiveLlc::setDdioWays(std::uint32_t ways)
{
    if (ways == 0 || ways > array.assoc())
        sim::fatal("setDdioWays(%u) out of range [1, %u]", ways,
                   array.assoc());

    // Grandfather lines that a shrink strands outside the partition:
    // they were legally allocated under the old mask, so drop their
    // ddioAlloc mark instead of tripping the confinement invariant.
    if (ways < nDdioWays) {
        for (std::uint32_t s = 0; s < array.numSets(); ++s) {
            for (std::uint32_t w = ways; w < nDdioWays; ++w)
                array.at(s, w).setDdioAlloc(false);
        }
    }
    nDdioWays = ways;
}

std::uint64_t
NonInclusiveLlc::ddioOccupancy() const
{
    return array.countValid(
        [this](const CacheLine &, std::uint32_t way) {
            return way < nDdioWays;
        });
}

std::uint64_t
NonInclusiveLlc::bloatedIoOccupancy() const
{
    return array.countValid(
        [this](const CacheLine &l, std::uint32_t way) {
            return l.io && way >= nDdioWays;
        });
}

void
NonInclusiveLlc::serialize(ckpt::Serializer &s) const
{
    // The partition width is runtime-tunable (DdioWayTuner), so it is
    // dynamic state even though it starts from the config.
    array.serialize(s);
    s.writeU32(nDdioWays);
}

void
NonInclusiveLlc::unserialize(ckpt::Deserializer &d)
{
    array.unserialize(d);
    nDdioWays = d.readU32();
}

} // namespace cache
