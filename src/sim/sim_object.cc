/**
 * @file
 * SimObject implementation.
 */

#include "sim_object.hh"

#include "simulation.hh"

namespace sim
{

SimObject::SimObject(Simulation &simulation, std::string name)
    : sim(simulation), eq(&simulation.eventq()),
      _name(std::move(name))
{
    sim.registerObject(this);
}

SimObject::~SimObject()
{
    sim.unregisterObject(this);
}

void
SimObject::serialize(ckpt::Serializer &) const
{
}

void
SimObject::unserialize(ckpt::Deserializer &)
{
}

trace::Tracer &
SimObject::tracer() const
{
    return sim.tracer();
}

Tick
SimObject::now() const
{
    return eq->now();
}

} // namespace sim
