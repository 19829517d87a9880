/**
 * @file
 * Calibrated per-core timing model.
 *
 * The paper's results depend on *where cachelines live*, not on
 * pipeline microarchitecture; the out-of-order core model in gem5 only
 * sets the constant packet-consumption rate. Core therefore models a
 * processor as a sequence of atomic workload steps: each step performs
 * cacheline-granular memory operations against the hierarchy (paying
 * the level-accurate latency of each access) plus explicit compute
 * cost, and the event loop resumes the workload after the step's total
 * latency. Calibration (see DESIGN.md) makes one core sustain ~1 Mpps
 * of MTU-sized TouchDrop traffic, matching the paper's observed
 * ~12 Gbps per-core capacity.
 *
 * Idle cores sleep: a workload whose step just made one read that
 * every later step would repeat exactly (an empty PMD poll) offers
 * the step with offerIdle(). When that read hit L1 the core stops
 * scheduling steps and lets the event queue count the skipped ones
 * (sim::EventQueue::sleep). Anything that could change or observe a
 * skipped step wakes the core first (wake()): the read's line leaving
 * L1, an access made on the core's behalf outside its step, halt(),
 * the ring watcher the PMD installs, and the queue itself at every
 * run-call return. See DESIGN.md, "Idle cores".
 */

#ifndef IDIO_CPU_CORE_HH
#define IDIO_CPU_CORE_HH

#include <string>

#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace cpu
{

class Core;

/**
 * A software entity scheduled on one core.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Perform one atomic unit of work (a poll, one packet, one batch
     * of antagonist accesses...) using @p core 's memory interface.
     *
     * @return delay in ticks until the next step (>= the latency the
     *         step incurred; must be > 0).
     */
    virtual sim::Tick step(Core &core) = 0;

    /** Human-readable workload name. */
    virtual std::string label() const = 0;

    /**
     * @p n repeats of the step that last called Core::offerIdle()
     * were skipped while the core slept; count them as if run.
     */
    virtual void creditIdleSteps(std::uint64_t /*n*/) {}
};

/**
 * One physical core.
 */
class Core : public sim::SimObject, private sim::Sleeper
{
    stats::StatGroup statGroup;

  public:
    Core(sim::Simulation &simulation, const std::string &name,
         sim::CoreId id, cache::MemoryHierarchy &hierarchy);

    ~Core() override;

    sim::CoreId id() const { return coreId; }

    /** The hierarchy this core is attached to. */
    cache::MemoryHierarchy &hierarchy() { return hier; }

    /** @{ Memory interface: byte ranges expand to cacheline ops. */

    /** Read @p bytes starting at @p addr; @return total latency. */
    sim::Tick read(sim::Addr addr, std::uint64_t bytes = 1);

    /** Write @p bytes starting at @p addr; @return total latency. */
    sim::Tick write(sim::Addr addr, std::uint64_t bytes = 1);

    /**
     * Self-invalidate the lines of [addr, addr+bytes) — the IDIO
     * multi-cacheline invalidate instruction. @return latency.
     */
    sim::Tick invalidate(sim::Addr addr, std::uint64_t bytes);
    /** @} */

    /** Attach a workload and begin stepping it at now() + delay. */
    void run(Workload &workload, sim::Tick firstDelay = 0);

    /** Stop stepping the current workload. */
    void halt();

    /**
     * @{ Idle sleep. offerIdle() is called from inside
     * Workload::step() right after the step's only access, a read
     * that every later step would repeat with the same result and
     * delay. wake() is safe to call at any time; a spurious wake only
     * costs the skipped steps being dispatched again.
     */
    void offerIdle() { idleOffered = lastReadHitL1; }
    void
    wake()
    {
        if (asleep)
            eventq().wake(&stepEvent);
    }
    bool sleeping() const { return asleep; }
    /** @} */

    /** @{ Counters. */
    stats::Counter reads;
    stats::Counter writes;
    stats::Counter invalidations;
    stats::Counter hitsL1;
    stats::Counter hitsMlc;
    stats::Counter hitsLlc;
    stats::Counter hitsDram;
    stats::Counter steps;
    stats::Counter busyTicks;
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    class StepEvent : public sim::Event
    {
      public:
        explicit StepEvent(Core &owner) : owner(owner) {}
        void process() override { owner.doStep(); }
        std::string name() const override
        {
            return owner.name() + ".step";
        }

      private:
        Core &owner;
    };

    void doStep();
    void countLevel(mem::HitLevel level);

    /** Stop scheduling steps after one of period @p delay. */
    bool trySleep(sim::Tick delay);

    void sleptThrough(std::uint64_t n) override;
    void awoke() override;

    sim::CoreId coreId;
    cache::MemoryHierarchy &hier;
    Workload *workload = nullptr;
    StepEvent stepEvent;
    sim::Tick invalLineCost;

    /** @{ Idle-sleep state (never checkpointed: sleepers are woken
     * before a checkpoint). */
    sim::Addr lastRead = 0;
    bool lastReadHitL1 = false;
    bool idleOffered = false;
    bool asleep = false;
    sim::Tick sleepPeriod = 0;
    sim::Addr sleepLine = 0;
    /** @} */
};

} // namespace cpu

#endif // IDIO_CPU_CORE_HH
