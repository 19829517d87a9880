/**
 * @file
 * Named simulation components.
 *
 * Every model in the system (caches, NIC, cores, IDIO controller...)
 * derives from SimObject. The object records a dotted hierarchical name
 * ("system.llc", "system.core0.mlc") used for stat registration and
 * tracing, and keeps a reference to the Simulation it belongs to.
 */

#ifndef IDIO_SIM_SIM_OBJECT_HH
#define IDIO_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "types.hh"

namespace trace
{
class Tracer;
}

namespace ckpt
{
class Serializer;
class Deserializer;
}

namespace sim
{

class Simulation;
class EventQueue;

/**
 * Base class for all named simulation components.
 */
class SimObject
{
  public:
    /**
     * @param simulation Owning simulation context.
     * @param name Dotted hierarchical instance name.
     */
    SimObject(Simulation &simulation, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Instance name, e.g.\ "system.core0.mlc". */
    const std::string &name() const { return _name; }

    /** Owning simulation. */
    Simulation &simulation() const { return sim; }

    /** Event queue shorthand (the simulation's queue). */
    EventQueue &eventq() const { return *eq; }

    /** Event tracer shorthand. */
    trace::Tracer &tracer() const;

    /** Current simulated time shorthand. */
    Tick now() const;

    /**
     * @{ Checkpoint hooks. serialize() writes the object's *dynamic*
     * state (queues, FSM registers, pending-event records...) into the
     * already-open checkpoint section named after this object;
     * unserialize() reads it back in the same order. Structural state
     * rebuilt by construction (sizes, addresses, latencies) and stat
     * values (captured wholesale by the registry pseudo-section) must
     * not be written here. The default is stateless.
     */
    virtual void serialize(ckpt::Serializer &serializer) const;
    virtual void unserialize(ckpt::Deserializer &deserializer);
    /** @} */

  protected:
    Simulation &sim;

  private:
    EventQueue *eq;
    std::string _name;
};

} // namespace sim

#endif // IDIO_SIM_SIM_OBJECT_HH
