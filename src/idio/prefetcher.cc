/**
 * @file
 * MlcPrefetcher implementation.
 */

#include "prefetcher.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace idio
{

namespace
{

/** Ticks between issued prefetches. */
constexpr sim::Tick issuePeriod = sim::nsToTicks(prefetchIssueNs);

} // anonymous namespace

MlcPrefetcher::MlcPrefetcher(sim::Simulation &simulation,
                             const std::string &name,
                             cache::MemoryHierarchy &hierarchy,
                             sim::CoreId core, std::uint32_t pacingWindow)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      hintsReceived(statGroup, "hintsReceived",
                    "prefetch hints from the IDIO controller"),
      hintsDropped(statGroup, "hintsDropped",
                   "hints dropped because the queue was full"),
      issued(statGroup, "issued", "prefetch requests sent to the LLC"),
      fills(statGroup, "fills", "prefetches that filled the MLC"),
      stalls(statGroup, "stalls",
             "issue slots skipped because the pacing window was full"),
      hier(hierarchy), core(core), window(pacingWindow),
      issueEvent(*this)
{
}

MlcPrefetcher::~MlcPrefetcher()
{
    if (issueEvent.scheduled())
        eventq().deschedule(&issueEvent);
}

void
MlcPrefetcher::hint(sim::Addr addr)
{
    ++hintsReceived;
    if (queue.size() >= prefetchQueueDepth) {
        ++hintsDropped;
        return;
    }
    queue.push_back(mem::lineAlign(addr));
    if (!canIssue())
        ++stalls; // parked until a prefetched line retires
    else if (!issueEvent.scheduled())
        eventq().scheduleIn(&issueEvent, issuePeriod);
}

void
MlcPrefetcher::onRetire()
{
    if (outstanding > 0)
        --outstanding;
    // A credit freed up: resume a stalled queue.
    if (!queue.empty() && canIssue() && !issueEvent.scheduled())
        eventq().scheduleIn(&issueEvent, issuePeriod);
}

void
MlcPrefetcher::issue()
{
    if (queue.empty())
        return;
    if (!canIssue()) {
        // CPU-paced mode: too many unconsumed prefetched lines; wait
        // for the core (or an eviction) to retire one.
        ++stalls;
        return;
    }
    const sim::Addr addr = queue.front();
    queue.pop_front();
    ++issued;
    if (hier.mlcPrefetch(core, addr)) {
        ++fills;
        ++outstanding;
    }
    // The prefetch fill may have synchronously evicted a prefetched
    // line and re-armed this event through onRetire(); guard against
    // double scheduling.
    if (!queue.empty()) {
        if (!canIssue())
            ++stalls;
        else if (!issueEvent.scheduled())
            eventq().scheduleIn(&issueEvent, issuePeriod);
    }
}

void
MlcPrefetcher::serialize(ckpt::Serializer &s) const
{
    s.writeU32(outstanding);
    s.writeU64(queue.size());
    for (const sim::Addr a : queue)
        s.writeU64(a);
    ckpt::serializeEvent(s, issueEvent);
}

void
MlcPrefetcher::unserialize(ckpt::Deserializer &d)
{
    outstanding = d.readU32();
    queue.clear();
    const std::uint64_t n = d.readU64();
    for (std::uint64_t i = 0; i < n; ++i)
        queue.push_back(d.readU64());
    ckpt::unserializeEvent(d, &issueEvent);
}

} // namespace idio
