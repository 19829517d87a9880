/**
 * @file
 * Simulation context implementation.
 */

#include "simulation.hh"

#include <functional>

#include "stats/registry.hh"
#include "trace/tracer.hh"

namespace sim
{

Simulation::Simulation(std::uint64_t seed)
    : rootRng(seed), seedVal(seed),
      statsReg(std::make_unique<stats::Registry>()),
      tracerPtr(std::make_unique<trace::Tracer>())
{
}

Simulation::~Simulation() = default;

Rng
Simulation::deriveRng(const std::string &component) const
{
    const std::uint64_t h = std::hash<std::string>{}(component);
    return Rng(seedVal * 0x9e3779b97f4a7c15ULL ^ h);
}

void
Simulation::registerObject(SimObject *obj)
{
    objs.push_back(obj);
}

void
Simulation::unregisterObject(SimObject *obj)
{
    for (auto it = objs.begin(); it != objs.end(); ++it) {
        if (*it == obj) {
            objs.erase(it);
            return;
        }
    }
}

} // namespace sim
