/**
 * @file
 * Reference scheduler for the differential tests.
 *
 * A deliberately plain binary heap of (tick, seq) entries, written for
 * obviousness rather than speed: std::push_heap/std::pop_heap over a
 * vector, callbacks in a map keyed by seq, deschedule by erasing the
 * callback (the heap entry is dropped when it surfaces). It assigns
 * sequence numbers exactly like sim::EventQueue — the n-th schedule
 * gets seq 2n — and fires in ascending (tick, seq) order, so the
 * timing wheel must reproduce its firing log event for event.
 *
 * Agent members (sim::AgentEvent on the wheel side) fire in the same
 * order; the reference only models which of their steps the wheel's
 * agent runs inline, with a naive scan for the run-ahead condition
 * (canRunAhead()), so dispatch counts are compared exactly too.
 */

#ifndef IDIO_TESTS_SIM_REFERENCE_QUEUE_HH
#define IDIO_TESTS_SIM_REFERENCE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace simtest
{

class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;

    sim::Tick now() const { return curTick; }
    std::size_t pending() const { return live.size(); }
    bool empty() const { return live.empty(); }

    /**
     * Schedule @p fn at @p when, an agent member if @p member;
     * returns its seq (2n for the n-th).
     */
    std::uint64_t
    schedule(sim::Tick when, Callback fn, bool member = false)
    {
        const std::uint64_t seq = 2 * nextSeq++;
        live.emplace(seq, Live{std::move(fn), when, member});
        heap.push_back({when, seq});
        std::push_heap(heap.begin(), heap.end(), later);
        return seq;
    }

    /** Cancel the pending schedule @p seq. */
    void deschedule(std::uint64_t seq) { live.erase(seq); }

    bool
    scheduled(std::uint64_t seq) const
    {
        return live.count(seq) != 0;
    }

    /** Earliest pending tick, or maxTick when empty. */
    sim::Tick
    nextEventTick()
    {
        dropCancelledTop();
        return heap.empty() ? sim::maxTick : heap.front().first;
    }

    /**
     * The agent's run-ahead condition for a member step at tick @p t
     * in a run call limited to @p limit: no pending event other than
     * a member is due at or before @p t, and @p t is within the limit.
     */
    bool
    canRunAhead(sim::Tick t, sim::Tick limit) const
    {
        if (t > limit)
            return false;
        for (const auto &[seq, rec] : live)
            if (!rec.member && rec.when <= t)
                return false;
        return true;
    }

    /**
     * Fire every event at or before @p limit in (tick, seq) order,
     * then move time to @p limit (unless it is maxTick) — the
     * semantics of sim::EventQueue::runUntil. A member step that
     * directly follows another member step of the same call, and may
     * run ahead, is an inline step; every other firing is a dispatch.
     *
     * @return the dispatches.
     */
    std::uint64_t
    runUntil(sim::Tick limit)
    {
        std::uint64_t fired = 0;
        bool stretch = false;
        for (;;) {
            const sim::Tick next = nextEventTick();
            if (heap.empty() || next > limit)
                break;
            std::pop_heap(heap.begin(), heap.end(), later);
            const auto [when, seq] = heap.back();
            heap.pop_back();
            auto it = live.find(seq);
            Live rec = std::move(it->second);
            live.erase(it);
            if (!(rec.member && stretch && canRunAhead(when, limit)))
                ++fired;
            stretch = rec.member;
            curTick = when;
            ++steps;
            rec.fn();
        }
        dispatches += fired;
        if (curTick < limit && limit != sim::maxTick)
            curTick = limit;
        return fired;
    }

    /** @{ The wheel's processedEvents() and logicalSteps(). */
    std::uint64_t processedEvents() const { return dispatches; }
    std::uint64_t logicalSteps() const { return steps; }
    /** @} */

  private:
    using Key = std::pair<sim::Tick, std::uint64_t>;

    struct Live
    {
        Callback fn;
        sim::Tick when;
        bool member;
    };

    static bool later(const Key &a, const Key &b) { return a > b; }

    void
    dropCancelledTop()
    {
        while (!heap.empty() && live.count(heap.front().second) == 0) {
            std::pop_heap(heap.begin(), heap.end(), later);
            heap.pop_back();
        }
    }

    std::vector<Key> heap;
    std::map<std::uint64_t, Live> live;
    sim::Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t steps = 0;
};

} // namespace simtest

#endif // IDIO_TESTS_SIM_REFERENCE_QUEUE_HH
