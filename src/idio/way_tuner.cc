/**
 * @file
 * DdioWayTuner implementation.
 */

#include "way_tuner.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace idio
{

DdioWayTuner::DdioWayTuner(sim::Simulation &simulation,
                           const std::string &name,
                           cache::MemoryHierarchy &hierarchy)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      grows(statGroup, "grows", "DDIO partition grow decisions"),
      shrinks(statGroup, "shrinks", "DDIO partition shrink decisions"),
      evaluations(statGroup, "evaluations", "tuning intervals"),
      hier(hierarchy),
      tick(simulation.eventq(), interval, [this] { evaluate(); },
           name + ".tick")
{
}

void
DdioWayTuner::start()
{
    lastLeak = hier.llc().ddioWayEvictions.get();
    lastMisses = hier.llc().misses.get();
    tick.start();
}

void
DdioWayTuner::evaluate()
{
    ++evaluations;

    const std::uint64_t leakNow = hier.llc().ddioWayEvictions.get();
    const std::uint64_t missNow = hier.llc().misses.get();
    const std::uint64_t leak = leakNow - lastLeak;
    const std::uint64_t misses = missNow - lastMisses;
    lastLeak = leakNow;
    lastMisses = missNow;

    const std::uint32_t ways = hier.llc().ddioWays();
    if (leak > growLeakThreshold && ways < maxWays) {
        hier.llc().setDdioWays(ways + 1);
        ++grows;
    } else if (leak < shrinkLeakThreshold &&
               misses > missThreshold && ways > minWays) {
        hier.llc().setDdioWays(ways - 1);
        ++shrinks;
    }
}

void
DdioWayTuner::serialize(ckpt::Serializer &s) const
{
    s.writeU64(lastLeak);
    s.writeU64(lastMisses);
    ckpt::serializeEvent(s, tick);
}

void
DdioWayTuner::unserialize(ckpt::Deserializer &d)
{
    lastLeak = d.readU64();
    lastMisses = d.readU64();
    ckpt::unserializeEvent(d, &tick);
}

} // namespace idio
