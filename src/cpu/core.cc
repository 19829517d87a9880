/**
 * @file
 * Core implementation.
 */

#include "core.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace cpu
{

Core::Core(sim::Simulation &simulation, const std::string &name,
           sim::CoreId id, cache::MemoryHierarchy &hierarchy)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      reads(statGroup, "reads", "cacheline reads issued"),
      writes(statGroup, "writes", "cacheline writes issued"),
      invalidations(statGroup, "invalidations",
                    "self-invalidate lines issued"),
      hitsL1(statGroup, "hitsL1", "accesses served by L1"),
      hitsMlc(statGroup, "hitsMlc", "accesses served by MLC"),
      hitsLlc(statGroup, "hitsLlc", "accesses served by LLC"),
      hitsDram(statGroup, "hitsDram", "accesses served by DRAM"),
      steps(statGroup, "steps", "workload steps executed"),
      busyTicks(statGroup, "busyTicks",
                "ticks spent inside workload steps"),
      coreId(id), hier(hierarchy), stepEvent(*this),
      invalLineCost(hierarchy.config().cyclesToTicks(1))
{
}

Core::~Core()
{
    halt();
}

sim::Tick
Core::read(sim::Addr addr, std::uint64_t bytes)
{
    wake(); // an access outside the core's own step
    sim::Tick lat = 0;
    sim::Addr a = mem::lineAlign(addr);
    for (std::uint64_t n = mem::linesSpanned(addr, bytes); n > 0;
         --n, a += mem::lineSize) {
        const mem::AccessResult r = hier.coreRead(coreId, a);
        lat += r.latency;
        ++reads;
        lastRead = a;
        lastReadHitL1 = r.level == mem::HitLevel::L1;
        countLevel(r.level);
    }
    return lat;
}

sim::Tick
Core::write(sim::Addr addr, std::uint64_t bytes)
{
    wake();
    sim::Tick lat = 0;
    sim::Addr a = mem::lineAlign(addr);
    for (std::uint64_t n = mem::linesSpanned(addr, bytes); n > 0;
         --n, a += mem::lineSize) {
        const mem::AccessResult r = hier.coreWrite(coreId, a);
        lat += r.latency;
        ++writes;
        countLevel(r.level);
    }
    return lat;
}

sim::Tick
Core::invalidate(sim::Addr addr, std::uint64_t bytes)
{
    wake();
    const std::uint64_t lines = mem::linesSpanned(addr, bytes);
    hier.invalidateRange(coreId, addr, bytes);
    invalidations += lines;
    return lines * invalLineCost;
}

void
Core::run(Workload &wl, sim::Tick firstDelay)
{
    wake();
    workload = &wl;
    if (!stepEvent.scheduled())
        eventq().scheduleIn(&stepEvent, firstDelay);
}

void
Core::halt()
{
    wake();
    workload = nullptr;
    if (stepEvent.scheduled())
        eventq().deschedule(&stepEvent);
}

void
Core::doStep()
{
    if (!workload)
        return;
    idleOffered = false;
    const sim::Tick delay = workload->step(*this);
    SIM_ASSERT(delay > 0, "workload step returned zero delay");
    ++steps;
    busyTicks += delay;
    if (idleOffered && trySleep(delay))
        return;
    eventq().scheduleIn(&stepEvent, delay);
}

bool
Core::trySleep(sim::Tick delay)
{
    if (!eventq().sleep(&stepEvent, now() + delay, delay, this))
        return false;
    asleep = true;
    sleepPeriod = delay;
    sleepLine = lastRead;
    hier.watchL1(coreId, sleepLine,
                 sim::Delegate<void()>::fromMember<&Core::wake>(this));
    return true;
}

void
Core::sleptThrough(std::uint64_t n)
{
    // Exactly what n more runs of the offered step would have done:
    // one L1-hit read of the same line, the same delay.
    reads += n;
    hitsL1 += n;
    steps += n;
    busyTicks += n * sleepPeriod;
    hier.repeatL1Hit(coreId, sleepLine, n);
    if (workload)
        workload->creditIdleSteps(n);
}

void
Core::awoke()
{
    asleep = false;
    hier.unwatchL1(coreId);
}

void
Core::serialize(ckpt::Serializer &s) const
{
    // The workload binding itself is re-created by the harness before
    // restore; only the step schedule is dynamic.
    SIM_ASSERT(!asleep, "checkpoint of a sleeping core");
    ckpt::serializeEvent(s, stepEvent);
}

void
Core::unserialize(ckpt::Deserializer &d)
{
    // Restore cleared the queue's sleepers along with its events.
    if (asleep)
        awoke();
    ckpt::unserializeEvent(d, &stepEvent);
}

void
Core::countLevel(mem::HitLevel level)
{
    switch (level) {
      case mem::HitLevel::L1:
        ++hitsL1;
        break;
      case mem::HitLevel::MLC:
        ++hitsMlc;
        break;
      case mem::HitLevel::LLC:
        ++hitsLlc;
        break;
      case mem::HitLevel::DRAM:
        ++hitsDram;
        break;
    }
}

} // namespace cpu
