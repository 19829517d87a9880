/**
 * @file
 * Top-level simulation context.
 *
 * A Simulation owns the EventQueue, the stats registry, and the global
 * RNG seed. Experiment harnesses create one Simulation, build the system
 * model inside it, and call run()/runFor().
 */

#ifndef IDIO_SIM_SIMULATION_HH
#define IDIO_SIM_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event_queue.hh"
#include "rng.hh"
#include "types.hh"

namespace stats
{
class Registry;
}

namespace trace
{
class Tracer;
}

namespace sim
{

class SimObject;

/**
 * Owns the event queue, stats registry and RNG for one simulated system.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The central event queue / time base. */
    EventQueue &eventq() { return queue; }
    const EventQueue &eventq() const { return queue; }

    /** Current simulated time. */
    Tick now() const { return queue.now(); }

    /** Stats registry for all SimObjects in this simulation. */
    stats::Registry &statsRegistry() { return *statsReg; }

    /**
     * Packet-lifecycle event tracer for this simulation (disabled
     * until trace::Tracer::enable(); see src/trace/tracer.hh).
     */
    trace::Tracer &tracer() { return *tracerPtr; }
    const trace::Tracer &tracer() const { return *tracerPtr; }

    /** Root RNG; components derive their own via deriveRng(). */
    Rng &rng() { return rootRng; }

    /** Root seed this simulation was constructed with. */
    std::uint64_t seed() const { return seedVal; }

    /**
     * @{ SimObject registry (checkpoint support). Every SimObject
     * registers itself at construction and unregisters at destruction;
     * ckpt::save()/restore() walk the list in registration order,
     * which is deterministic because model construction is.
     */
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);
    const std::vector<SimObject *> &objects() const { return objs; }
    /** @} */

    /**
     * Create an independent deterministic RNG for a component, derived
     * from the root seed and the component name hash.
     */
    Rng deriveRng(const std::string &component) const;

    /** Run until the event queue drains or @p limit is reached. */
    std::uint64_t runUntil(Tick limit) { return queue.runUntil(limit); }

    /** Run for @p delta more simulated time. */
    std::uint64_t
    runFor(Tick delta)
    {
        return queue.runUntil(queue.now() + delta);
    }

    /**
     * Wheel dispatches: host-independent, the scheduler's cost
     * counter that the perf bench reports as events per packet. The
     * queue's agent runs most DMA pump and prefetch issue steps
     * inside one dispatch, so this counts fewer than the events run;
     * totalLogicalSteps() counts those.
     */
    std::uint64_t
    totalProcessedEvents() const
    {
        return queue.processedEvents();
    }

    /**
     * Events run: dispatches plus the agent's inline steps. Exact,
     * and the same whether or not the agent runs ahead.
     */
    std::uint64_t
    totalLogicalSteps() const
    {
        return queue.logicalSteps();
    }

  private:
    EventQueue queue;
    Rng rootRng;
    std::uint64_t seedVal;
    std::unique_ptr<stats::Registry> statsReg;
    std::unique_ptr<trace::Tracer> tracerPtr;
    std::vector<SimObject *> objs;
};

} // namespace sim

#endif // IDIO_SIM_SIMULATION_HH
