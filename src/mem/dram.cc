/**
 * @file
 * DramModel implementation.
 */

#include "dram.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace mem
{

const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        return "L1";
      case HitLevel::MLC:
        return "MLC";
      case HitLevel::LLC:
        return "LLC";
      case HitLevel::DRAM:
        return "DRAM";
    }
    return "?";
}

namespace
{

constexpr sim::Tick accessLatency = sim::nsToTicks(DramModel::latencyNs);

/** Time one cacheline occupies the (aggregated) channels. */
constexpr sim::Tick serviceTime = sim::nsToTicks(
    static_cast<double>(lineSize) / DramModel::bandwidthGBps);

} // anonymous namespace

DramModel::DramModel(sim::Simulation &simulation, const std::string &name)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      reads(statGroup, "reads", "DRAM cacheline read transactions"),
      writes(statGroup, "writes", "DRAM cacheline write transactions"),
      queuedTicks(statGroup, "queuedTicks",
                  "total queueing delay suffered at DRAM (ticks)")
{
}

sim::Tick
DramModel::access(AccessType type)
{
    const sim::Tick nowT = now();
    const sim::Tick start = std::max(nowT, nextFree);
    const sim::Tick queueDelay = start - nowT;
    nextFree = start + serviceTime;

    if (type == AccessType::Read)
        ++reads;
    else
        ++writes;
    queuedTicks += queueDelay;

    return queueDelay + accessLatency;
}

void
DramModel::serialize(ckpt::Serializer &s) const
{
    s.writeTick(nextFree);
}

void
DramModel::unserialize(ckpt::Deserializer &d)
{
    nextFree = d.readTick();
}

} // namespace mem
