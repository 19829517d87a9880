/**
 * @file
 * Core implementation.
 */

#include "core.hh"

#include <algorithm>

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
        lastReadHitL1 = !r.pending && r.level == mem::HitLevel::L1;
        // Pending accesses count their level when the fill reply
        // arrives (fillArrived), not at probe time.
        if (!r.pending)
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
        if (!r.pending)
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
    fillsOutstanding = 0;
    fillLatAccum = 0;
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
    // Split mode: when the step left fill requests pending, the
    // dispatch hook sends them over the link and the schedule stalls
    // until fillArrived() drains the replies.
    if (splitDispatch && splitDispatch(now() + delay))
        return;
    if (idleOffered && trySleep(delay))
        return;
    eventq().scheduleIn(&stepEvent, delay);
}

bool
Core::trySleep(sim::Tick delay)
{
    // Split mode keeps polling: its core domain has no exact view of
    // the descriptor line's L1 copy.
    if (splitDispatch ||
        !eventq().sleep(&stepEvent, now() + delay, delay, this))
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
Core::beginFillWait(std::uint32_t count, sim::Tick resumeBase)
{
    SIM_ASSERT(count > 0, "fill wait needs at least one fill");
    SIM_ASSERT(fillsOutstanding == 0,
               "fill wait started with fills already outstanding");
    fillsOutstanding = count;
    fillLatAccum = 0;
    stepResumeBase = resumeBase;
}

void
Core::fillArrived(sim::Tick extraLat, mem::HitLevel level)
{
    SIM_ASSERT(fillsOutstanding > 0,
               "fill reply arrived with no wait in progress");
    countLevel(level);
    fillLatAccum += extraLat;
    if (--fillsOutstanding)
        return;
    if (!workload)
        return;
    // The uncore share of the stalled step's latency lands here; the
    // round-trip link time may already exceed it, in which case the
    // step resumes as soon as the last reply lands.
    busyTicks += fillLatAccum;
    const sim::Tick at =
        std::max(stepResumeBase + fillLatAccum, now());
    if (!stepEvent.scheduled())
        eventq().schedule(&stepEvent, at);
}

void
Core::serialize(ckpt::Serializer &s) const
{
    // The workload binding itself is re-created by the harness before
    // restore; only the step schedule is dynamic. The split fill-wait
    // fields only exist (and only serialize) when the dispatch hook is
    // bound, keeping legacy checkpoint bytes unchanged.
    SIM_ASSERT(!asleep, "checkpoint of a sleeping core");
    ckpt::serializeEvent(s, stepEvent);
    if (splitDispatch) {
        s.writeU32(fillsOutstanding);
        s.writeTick(fillLatAccum);
        s.writeTick(stepResumeBase);
    }
}

void
Core::unserialize(ckpt::Deserializer &d)
{
    // Restore cleared the queue's sleepers along with its events.
    if (asleep)
        awoke();
    ckpt::unserializeEvent(d, &stepEvent, &eventq());
    if (splitDispatch) {
        fillsOutstanding = d.readU32();
        fillLatAccum = d.readTick();
        stepResumeBase = d.readTick();
    }
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
