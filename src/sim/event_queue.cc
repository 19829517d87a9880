/**
 * @file
 * EventQueue implementation: the hierarchical-timing-wheel scheduler
 * and its dispatch machinery (fused same-tick drain, sleeping
 * events).
 */

#include "event_queue.hh"

#include <numeric>
#include <unordered_map>

namespace sim
{

namespace
{

constexpr std::size_t bitmapNpos = ~std::size_t(0);

/** Index of the lowest set bit across a level's occupancy words. */
std::size_t
lowestSetIndex(const std::array<std::uint64_t, 4> &words)
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (words[w])
            return w * 64 +
                   static_cast<std::size_t>(__builtin_ctzll(words[w]));
    }
    return bitmapNpos;
}

} // namespace

Event::~Event()
{
    // An Event must be descheduled before destruction; the queue holds
    // only a raw pointer. Destruction while scheduled is a programming
    // error in release builds too, but we cannot safely touch the queue
    // here, so we just flag it.
    if (_scheduled)
        panic("event destroyed while scheduled");
}

EventQueue::~EventQueue()
{
    // Unmark remaining live entries so their owners can destroy them
    // afterwards; tombstoned entries are null already.
    auto unmark = [](std::vector<Entry> &v) {
        for (Entry &e : v)
            if (e.ev)
                e.ev->_scheduled = false;
    };
    for (auto &level : slots)
        for (auto &slot : level)
            unmark(slot);
    unmark(drainBatch);
    unmark(agentCal);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        panic("event '%s' scheduled twice", ev->name().c_str());
    if (when < curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name().c_str(), (unsigned long long)when,
              (unsigned long long)curTick);

    const std::uint64_t seq = freshSeq();
    ev->_scheduled = true;
    ev->_when = when;
    ev->_seq = seq;
    if (ev->_agent)
        scheduleMember(ev, when, seq);
    else
        insert(when, seq, ev);
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("descheduling unscheduled event '%s'", ev->name().c_str());
    if (ev->_agent) {
        descheduleMember(ev);
        return;
    }

    const Tick when = ev->_when;
    const std::uint64_t seq = ev->_seq;
    ev->_scheduled = false;
    --livePending;
    if (seq & 1) [[unlikely]]
        forgetRecovered(ev);
    eraseEntry(when, seq);
}

void
EventQueue::eraseEntry(Tick when, std::uint64_t seq)
{
    if (minValid && when == cachedMin)
        minValid = false;

    // Erase the entry exactly: no tombstones in slots, so deschedule
    // churn cannot bloat the wheel.
    const unsigned l = levelFor(when);
    const std::size_t idx = slotIndex(l, when);
    auto &slot = slots[l][idx];
    for (auto it = slot.begin(); it != slot.end(); ++it) {
        if (it->seq == seq) {
            slot.erase(it);
            if (slot.empty())
                clearSlotMark(l, idx);
            return;
        }
    }
    // Not in its slot: the event's tick is being drained right now and
    // the entry sits in the swapped-out batch. Tombstone it there so
    // the dispatch loop skips it (the owner may destroy the Event as
    // soon as it is descheduled, so the pointer must go).
    if (draining) {
        for (std::size_t i = drainPos + 1; i < drainBatch.size(); ++i) {
            if (drainBatch[i].ev && drainBatch[i].seq == seq) {
                drainBatch[i].ev = nullptr;
                return;
            }
        }
    }
    SIM_ASSERT(false, "scheduled event missing from its wheel slot");
}

void
EventQueue::advanceSlow(Tick x, Tick t)
{
    // curTick is already t, so cascade() places against it. Every
    // entry of level l shares the tick bits above level l with the
    // old now() and is later than it. Crossing level L = levelOf(x)
    // therefore leaves levels below L empty (their entries would
    // precede t) and every level above L in place: only the level-L
    // slot covering t holds entries whose level changes, and they all
    // land below L.
    const unsigned l = levelOf(x);
    cascade(l, slotIndex(l, t));
}

void
EventQueue::cascade(unsigned level, std::size_t idx)
{
    auto &slot = slots[level][idx];
    if (slot.empty())
        return;
    // Swap out before re-placing: every entry here shares tick bits
    // with now() down through this level, so placeWheel targets
    // strictly lower levels and never appends back into `slot`.
    cascadeScratch.clear();
    cascadeScratch.swap(slot);
    clearSlotMark(level, idx);
    for (const Entry &e : cascadeScratch)
        placeWheel(e);
    cascadeScratch.clear();
}

Tick
EventQueue::computeMin() const
{
    // Mid-drain remnants of the active tick still count as pending
    // (the entry at drainPos is the one being dispatched).
    if (draining) {
        for (std::size_t i = drainPos + 1; i < drainBatch.size(); ++i)
            if (drainBatch[i].ev)
                return curTick;
    }
    // Level hierarchy: every live level-l tick precedes every
    // level-(l+1) tick, so the first occupied level decides the min.
    if (!levelEmpty(0)) {
        const std::size_t idx = lowestSetIndex(occupied[0]);
        return (curTick & ~Tick(slotMask)) | Tick(idx);
    }
    for (unsigned l = 1; l < numLevels; ++l) {
        if (levelEmpty(l))
            continue;
        const std::size_t idx = lowestSetIndex(occupied[l]);
        Tick best = maxTick;
        for (const Entry &e : slots[l][idx])
            best = std::min(best, e.when);
        return best;
    }
    return maxTick;
}

Tick
EventQueue::nextEventTick() const
{
    Tick earliest = maxTick;
    for (const auto &level : slots)
        for (const auto &slot : level)
            for (const Entry &e : slot)
                if (e.when < earliest)
                    earliest = e.when;
    for (std::size_t i = drainPos; i < drainBatch.size(); ++i)
        if (drainBatch[i].ev && drainBatch[i].when < earliest)
            earliest = drainBatch[i].when;
    for (const Entry &e : agentCal)
        earliest = std::min(earliest, e.when);
    return earliest;
}

std::uint64_t
EventQueue::fireTickSlow()
{
    std::uint64_t fired = 0;
    // Every curTick entry lives in its level-0 slot (advanceTo
    // cascaded it there). Swap the slot out and fire it in one pass;
    // events scheduled into the same tick mid-drain land in the (now
    // empty) slot and are picked up by the outer loop — still in seq
    // order, since new seqs exceed every batched one.
    const Tick t = curTick;
    const std::size_t idx = slotIndex(0, t);
    auto &slot = slots[0][idx];
    draining = true;
    const auto bySeq = [](const Entry &a, const Entry &b) {
        return a.seq < b.seq;
    };
    while (!slot.empty()) {
        drainBatch.swap(slot);
        clearSlotMark(0, idx);
        // A level-0 slot covers a single tick, and same-tick entries
        // are seq-sorted by construction: direct appends use fresh
        // ascending seqs, placeOrdered() keeps same-tick order, and
        // cascades preserve it. (Whole level-1+ slots are NOT
        // seq-sorted — a cascade appends older entries behind newer
        // ones of other ticks.) Keep a defensive re-sort behind an
        // O(n) sortedness check.
        if (!std::is_sorted(drainBatch.begin(), drainBatch.end(), bySeq))
            std::sort(drainBatch.begin(), drainBatch.end(), bySeq);
        for (drainPos = 0; drainPos < drainBatch.size(); ++drainPos) {
            const Entry e = drainBatch[drainPos];
            if (!e.ev)
                continue; // descheduled mid-drain
            fireEntry(e);
            ++fired;
        }
        // The agent ran ahead: runAhead() ended the drain (nothing of
        // tick t was left) and the min cache is exact.
        if (curTick != t)
            return fired;
        drainBatch.clear();
        drainPos = 0;
    }
    draining = false;
    // runUntil() sends a tick here only when computeMin() found an
    // entry due at it, and advanceTo() cascades every such entry into
    // this slot. A tick that fires nothing means the wheel misplaced
    // its entries; without this check the run loop would pick the
    // same tick again forever.
    if (fired == 0)
        panic("tick %llu was due but fired nothing: no entry is in "
              "its level-0 slot", (unsigned long long)curTick);
    // The cached min was consumed. An empty queue re-validates at
    // maxTick immediately, so the dominant schedule-one/run-one cycle
    // updates the min on schedule and skips the recompute entirely.
    cachedMin = maxTick;
    minValid = empty();
    return fired;
}

void
EventQueue::placeOrdered(const Entry &e)
{
    if (minValid && e.when < cachedMin)
        cachedMin = e.when;
    const auto bySeq = [](const Entry &a, const Entry &b) {
        return a.seq < b.seq;
    };
    const unsigned l = levelFor(e.when);
    const std::size_t idx = slotIndex(l, e.when);
    auto &slot = slots[l][idx];
    if (draining && e.when == curTick &&
        (slot.empty() || e.seq < slot.front().seq)) {
        // The tick is being drained: the batch's unfired remainder
        // fires before the slot, which holds only schedules made
        // during this drain. The entry belongs in the batch unless it
        // sorts after the first of those.
        drainBatch.insert(std::upper_bound(drainBatch.begin() +
                                               drainPos + 1,
                                           drainBatch.end(), e, bySeq),
                          e);
        return;
    }
    // Level-1+ slots mix ticks; only same-tick order matters.
    auto it = std::find_if(slot.begin(), slot.end(), [&e](const Entry &o) {
        return o.when == e.when && o.seq > e.seq;
    });
    slot.insert(it, e);
    markSlot(l, idx);
}

void
EventQueue::scheduleMember(Event *ev, Tick when, std::uint64_t seq)
{
    ++livePending;
    agentCal.push_back(Entry{when, seq, ev});
    // A fresh seq sorts after every pending one: the member moves the
    // agent's entry only if it is due at an earlier tick.
    if (agentRunning)
        return;
    if (agentEvent._scheduled) {
        if (when >= agentEvent._when)
            return;
        agentEvent._scheduled = false;
        eraseEntry(agentEvent._when, agentEvent._seq);
    }
    placeAgent();
}

void
EventQueue::descheduleMember(Event *ev)
{
    ev->_scheduled = false;
    --livePending;
    const auto it = std::find_if(
        agentCal.begin(), agentCal.end(),
        [ev](const Entry &e) { return e.ev == ev; });
    SIM_ASSERT(it != agentCal.end(), "member missing from the agent");
    *it = agentCal.back();
    agentCal.pop_back();
    if (agentRunning || ev->_seq != agentEvent._seq ||
        !agentEvent._scheduled)
        return;
    agentEvent._scheduled = false;
    eraseEntry(agentEvent._when, agentEvent._seq);
    placeAgent();
}

std::size_t
EventQueue::agentMin() const
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < agentCal.size(); ++i) {
        const Entry &e = agentCal[i];
        const Entry &b = agentCal[best];
        if (e.when < b.when || (e.when == b.when && e.seq < b.seq))
            best = i;
    }
    return best;
}

void
EventQueue::placeAgent()
{
    if (agentCal.empty())
        return;
    const Entry &m = agentCal[agentMin()];
    agentEvent._scheduled = true;
    agentEvent._when = m.when;
    agentEvent._seq = m.seq;
    placeOrdered(Entry{m.when, m.seq, &agentEvent});
}

void
EventQueue::runAgent()
{
    // fireEntry() took the agent's entry out and counted its first
    // member's step as the dispatch. The member is the earliest, at
    // (curTick, dispatchSeq).
    agentRunning = true;
    minValid = false; // the cache may still hold the fired entry
    std::size_t i = agentMin();
    for (;;) {
        const Entry m = agentCal[i];
        agentCal[i] = agentCal.back();
        agentCal.pop_back();
        m.ev->_scheduled = false;
        m.ev->process();
        if (agentCal.empty())
            break;
        i = agentMin();
        const Entry &next = agentCal[i];
        if (!runAhead(next.when, next.seq, next.ev)) {
            agentRunning = false;
            placeAgent();
            return;
        }
    }
    agentRunning = false;
}

bool
EventQueue::runAhead(Tick t, std::uint64_t s, Event *ev)
{
    if (runAheadForbidden || t > runLimit || peekNextTick() <= t)
        return false;
    if (t != curTick) {
        // Nothing of the old tick is left to drain.
        if (draining) {
            drainBatch.clear();
            drainPos = 0;
            draining = false;
        }
        advanceTo(t);
    }
    --livePending;
    if (sleepActive)
        noteDispatch(Entry{t, s, ev});
    dispatchSeq = s;
    ++nSteps;
    return true;
}

bool
EventQueue::sleep(Event *ev, Tick first, Tick period, Sleeper *owner)
{
    SIM_ASSERT(!ev->_scheduled, "sleeping a scheduled event");
    if (sleepForbidden || period == 0)
        return false;
    // Two sleepers sharing a tick would tie at equal positions with
    // nothing left to order them; a recovered repeat on the grid
    // likewise. Refuse: the caller keeps dispatching instead.
    const Tick phase = first % period;
    for (const SleepRec &z : sleeps) {
        if (z.period == period) {
            if (z.phase == phase)
                return false;
        } else {
            const Tick d = z.g > first ? z.g - first : first - z.g;
            if (d % std::gcd(z.period, period) == 0)
                return false;
        }
    }
    for (const Recovered &rec : recovered) {
        if (rec.when >= first && (rec.when - first) % period == 0)
            return false;
    }
    sleeps.push_back(SleepRec{ev, owner, first, period, phase, nextSeq,
                              dispatchLog.size()});
    sleepActive = true;
    return true;
}

void
EventQueue::wake(Event *ev)
{
    wakeAt(ev, curTick, dispatchSeq);
}

void
EventQueue::wakeAt(Event *ev, Tick t, std::uint64_t s)
{
    auto it = std::find_if(sleeps.begin(), sleeps.end(),
                           [ev](const SleepRec &z) { return z.ev == ev; });
    SIM_ASSERT(it != sleeps.end(), "waking an event that is not asleep");
    SleepRec z = *it;
    const std::uint64_t n = resolveSleep(z, t, s);
    *it = sleeps.back();
    sleeps.pop_back();
    if (sleeps.empty())
        dispatchLog.clear();
    if (n)
        z.owner->sleptThrough(n);

    const std::uint64_t seq = 2 * z.r - 1;
    ev->_scheduled = true;
    ev->_when = z.g;
    ev->_seq = seq;
    ++livePending;
    placeOrdered(Entry{z.g, seq, ev});
    recovered.push_back(Recovered{ev, z.g});
    updateSleepActive();
    z.owner->awoke();
}

void
EventQueue::wakeAllAt(Tick t, std::uint64_t s)
{
    while (!sleeps.empty())
        wakeAt(sleeps.back().ev, t, s);
}

void
EventQueue::syncSleepers()
{
    for (SleepRec &z : sleeps) {
        if (const std::uint64_t n = resolveSleep(z, curTick, dispatchSeq))
            z.owner->sleptThrough(n);
    }
}

void
EventQueue::forgetRecovered(const Event *ev)
{
    for (auto it = recovered.begin(); it != recovered.end(); ++it) {
        if (it->ev == ev) {
            *it = recovered.back();
            recovered.pop_back();
            break;
        }
    }
    updateSleepActive();
}

void
EventQueue::noteDispatch(const Entry &e)
{
    if (e.seq & 1)
        forgetRecovered(e.ev);
    if (sleeps.empty())
        return;
    dispatchLog.push_back(DispatchRec{e.when, e.seq, nextSeq});
    if (dispatchLog.size() < dispatchLogCap)
        return;
    // Credit every sleeper up to this dispatch, then drop the records
    // none of them can need again.
    std::size_t keep = dispatchLog.size();
    for (SleepRec &z : sleeps) {
        if (const std::uint64_t n = resolveSleep(z, e.when, e.seq))
            z.owner->sleptThrough(n);
        keep = std::min(keep, z.logPos);
    }
    dispatchLog.erase(dispatchLog.begin(),
                      dispatchLog.begin() +
                          static_cast<std::ptrdiff_t>(keep));
    for (SleepRec &z : sleeps)
        z.logPos -= keep;
}

std::size_t
EventQueue::logLowerBound(std::size_t from, Tick t) const
{
    return static_cast<std::size_t>(
        std::lower_bound(dispatchLog.begin() +
                             static_cast<std::ptrdiff_t>(from),
                         dispatchLog.end(), t,
                         [](const DispatchRec &d, Tick v) {
                             return d.when < v;
                         }) -
        dispatchLog.begin());
}

std::uint64_t
EventQueue::seqCounterAfter(const SleepRec &z, Tick g,
                            std::uint64_t r) const
{
    // The first logged dispatch ordered after (g, 2r - 1) began with
    // the counter value a schedule at that position would take. No
    // such dispatch yet (only possible between dispatches): nothing
    // has been scheduled since, so the live counter.
    const std::uint64_t pos = 2 * r - 1;
    std::size_t j = logLowerBound(z.logPos, g);
    while (j < dispatchLog.size() && dispatchLog[j].when == g &&
           dispatchLog[j].seq < pos)
        ++j;
    SIM_ASSERT(j == dispatchLog.size() || dispatchLog[j].when != g ||
                   dispatchLog[j].seq != pos,
               "sleeping repeat tied with a dispatch");
    return j == dispatchLog.size() ? nextSeq : dispatchLog[j].seqCounter;
}

std::uint64_t
EventQueue::repeatPos(const SleepRec &z, std::uint64_t i) const
{
    // Repeat m's position only depends on repeat m-1's when a dispatch
    // shares repeat m-1's tick; otherwise it is the counter before the
    // first dispatch after that tick. Walk back to such an anchor,
    // then forward through the shared ticks.
    std::uint64_t m = i;
    std::uint64_t r = z.r;
    while (m > 0) {
        const Tick prev = z.g + (m - 1) * z.period;
        const std::size_t j = logLowerBound(z.logPos, prev);
        if (j == dispatchLog.size()) {
            r = nextSeq;
            break;
        }
        if (dispatchLog[j].when != prev) {
            r = dispatchLog[j].seqCounter;
            break;
        }
        --m;
    }
    for (; m < i; ++m)
        r = seqCounterAfter(z, z.g + m * z.period, r);
    return r;
}

std::uint64_t
EventQueue::resolveSleep(SleepRec &z, Tick t, std::uint64_t s)
{
    if (z.g > t || (z.g == t && 2 * z.r - 1 >= s))
        return 0;
    // Repeats 0..n-1 fall at ticks <= t; the last may follow the
    // bound within tick t.
    std::uint64_t n = (t - z.g) / z.period + 1;
    const Tick last = z.g + (n - 1) * z.period;
    const std::uint64_t rLast = repeatPos(z, n - 1);
    if (last == t && 2 * rLast - 1 >= s) {
        --n;
        z.r = rLast;
        z.g = last;
    } else {
        z.r = seqCounterAfter(z, last, rLast);
        z.g = last + z.period;
    }
    z.logPos = logLowerBound(z.logPos, z.g);
    return n;
}

bool
EventQueue::selfCheckConsistent() const
{
    std::size_t liveInWheel = 0;
    std::unordered_map<Tick, std::uint64_t> seqByTick;

    for (unsigned l = 0; l < numLevels; ++l) {
        for (std::size_t idx = 0; idx < slotCount; ++idx) {
            const auto &slot = slots[l][idx];
            const bool marked =
                ((occupied[l][idx >> 6] >> (idx & 63)) & 1) != 0;
            if (marked != !slot.empty())
                return false;
            // Entries sharing a tick must appear in ascending seq
            // order — that is the order the level-0 drain fires them
            // in, and cascades preserve relative order on the way
            // down. Whole level-1+ slots need NOT be seq-sorted: a
            // cascade appends older entries behind newer ones of
            // other ticks. A level-0 slot covers a single tick, so
            // there the same-tick rule makes the whole slot sorted.
            seqByTick.clear();
            for (const Entry &e : slot) {
                if (!e.ev)
                    return false; // tombstone outside the drain batch
                if (levelFor(e.when) != l ||
                    slotIndex(l, e.when) != idx)
                    return false;
                if (e.when < curTick)
                    return false; // live event in the past
                const auto [it, fresh] =
                    seqByTick.emplace(e.when, e.seq);
                if (!fresh) {
                    if (e.seq <= it->second)
                        return false; // same-tick entries out of order
                    it->second = e.seq;
                }
                ++liveInWheel;
            }
        }
    }
    // When called from inside a dispatch mid-drain, drainPos still
    // points at the entry being fired (its livePending share is
    // already gone); only entries after it are still live.
    const std::size_t firstLive = drainPos + (draining ? 1 : 0);
    for (std::size_t i = firstLive; i < drainBatch.size(); ++i)
        if (drainBatch[i].ev)
            ++liveInWheel;

    // The agent's entry is not a pending event of its own; its
    // members are, and outside its dispatch it sits at the earliest.
    if (agentEvent._scheduled)
        --liveInWheel;
    for (const Entry &e : agentCal) {
        if (!e.ev->_agent || !e.ev->_scheduled || e.ev->_when != e.when ||
            e.ev->_seq != e.seq || e.when < curTick)
            return false;
    }
    if (!agentRunning) {
        if (agentEvent._scheduled == agentCal.empty())
            return false;
        if (!agentCal.empty()) {
            const Entry &m = agentCal[agentMin()];
            if (m.when != agentEvent._when || m.seq != agentEvent._seq)
                return false;
        }
    }
    return livePending == liveInWheel + agentCal.size();
}

void
EventQueueRestoreAccess::clearPending(EventQueue &eq)
{
    SIM_ASSERT(!eq.draining,
               "checkpoint restore from inside event dispatch");
    auto drop = [&eq](std::vector<EventQueue::Entry> &v) {
        for (EventQueue::Entry &e : v)
            if (e.ev)
                e.ev->_scheduled = false;
        v.clear();
    };
    for (auto &level : eq.slots)
        for (auto &slot : level)
            drop(slot);
    for (auto &words : eq.occupied)
        words.fill(0);
    drop(eq.drainBatch);
    drop(eq.agentCal);
    eq.drainPos = 0;
    // Sleepers' owners reset their own state on restore.
    eq.sleeps.clear();
    eq.recovered.clear();
    eq.dispatchLog.clear();
    eq.sleepActive = false;
    eq.dispatchSeq = EventQueue::betweenDispatches;
    eq.livePending = 0;
    eq.nextSeq = 0;
    eq.cachedMin = maxTick;
    eq.minValid = true;
}

} // namespace sim
