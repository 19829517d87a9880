/**
 * @file
 * EventQueue implementation: the hierarchical-timing-wheel scheduler
 * and its dispatch machinery (fused same-tick drain, overflow
 * compaction, one-shot pooling, sleeping events).
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
    // afterwards. Pooled one-shot nodes are owned by oneShotPool and
    // destroyed with it (their destructor disarms any stored
    // callable); squashed/tombstoned entries are null already.
    auto unmark = [](std::vector<Entry> &v) {
        for (Entry &e : v)
            if (e.evTag && !e.owned())
                e.ev()->_scheduled = false;
    };
    for (auto &level : slots)
        for (auto &slot : level)
            unmark(slot);
    unmark(drainBatch);
    unmark(heap);
}

void
EventQueue::push(const Entry &e)
{
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), EntryAfter{});
}

EventQueue::Entry
EventQueue::popTop()
{
    std::pop_heap(heap.begin(), heap.end(), EntryAfter{});
    Entry e = heap.back();
    heap.pop_back();
    return e;
}

OneShotEvent *
EventQueue::acquireOneShot()
{
    if (freeOneShots) {
        OneShotEvent *ev = freeOneShots;
        freeOneShots = ev->nextFree;
        ev->nextFree = nullptr;
        return ev;
    }
    oneShotPool.push_back(std::make_unique<OneShotEvent>());
    return oneShotPool.back().get();
}

void
EventQueue::releaseOneShot(OneShotEvent *ev)
{
    ev->disarm();
    ev->nextFree = freeOneShots;
    freeOneShots = ev;
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
    insert(when, seq, Entry::tag(ev, false));
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("descheduling unscheduled event '%s'", ev->name().c_str());

    const Tick when = ev->_when;
    const std::uint64_t seq = ev->_seq;
    ev->_scheduled = false;
    --livePending;
    if (seq & 1) [[unlikely]]
        forgetRecovered(ev);

    if (minValid && when == cachedMin)
        minValid = false;

    const unsigned l = levelFor(when);
    if (l < numLevels) {
        // Wheel-resident: erase the entry exactly. No tombstones in
        // slots — deschedule churn cannot bloat the wheel.
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
        // Not in its slot: the event's tick is being drained right now
        // and the entry sits in the swapped-out batch. Tombstone it
        // there so the dispatch loop skips it.
        if (draining) {
            for (std::size_t i = drainPos + 1; i < drainBatch.size();
                 ++i) {
                if (drainBatch[i].evTag && drainBatch[i].seq == seq) {
                    drainBatch[i].evTag = 0;
                    return;
                }
            }
        }
        SIM_ASSERT(false, "scheduled event missing from its wheel slot");
        return;
    }

    // Overflow heap: null the entry in place.
    // Once descheduled, the owner may destroy the Event immediately, so
    // the queue must not keep the pointer. Nulling does not disturb the
    // heap order (ordering keys are when/seq only).
    for (Entry &e : heap) {
        if (e.ev() == ev && e.seq == seq) {
            e.evTag = 0;
            ++squashedCount;
            // Lazy compaction: once squashed entries outnumber live
            // ones the heap is mostly dead weight — rebuild it from
            // the survivors so heap.size() stays within 2x of its
            // live population no matter how much a workload
            // deschedules.
            if (squashedCount * 2 > heap.size())
                compact();
            return;
        }
    }
    SIM_ASSERT(false, "scheduled event missing from the overflow heap");
}

void
EventQueue::compact()
{
    const std::size_t liveHeap = heap.size() - squashedCount;
    heap.erase(std::remove_if(
                   heap.begin(), heap.end(),
                   [](const Entry &e) { return squashed(e); }),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), EntryAfter{});
    squashedCount = 0;
    SIM_ASSERT(heap.size() == liveHeap,
               "squashed-entry compaction changed pending()");
}

void
EventQueue::advanceSlow(Tick t)
{
    const Tick x = wheelBase ^ t;
    // Set the base first: the cascade/refill placement below is
    // relative to the NEW base, so moved entries land in lower levels
    // (or the overflow pulls into exact slots) and are never
    // re-visited by this advance.
    wheelBase = t;
    if (x >> spanBits) {
        // Crossed into a new 2^24-tick block: pull the now-in-horizon
        // overflow events back into the wheel.
        refillFromOverflow(t);
    }
    if (x >> (2 * slotBits))
        cascade(2, slotIndex(2, t));
    cascade(1, slotIndex(1, t));
}

void
EventQueue::cascade(unsigned level, std::size_t idx)
{
    auto &slot = slots[level][idx];
    if (slot.empty())
        return;
    // Swap out before re-placing: every entry here shares tick bits
    // with the new base down through this level, so placeWheel targets
    // strictly lower levels and never appends back into `slot`.
    cascadeScratch.clear();
    cascadeScratch.swap(slot);
    clearSlotMark(level, idx);
    for (const Entry &e : cascadeScratch)
        placeWheel(e);
    cascadeScratch.clear();
}

void
EventQueue::refillFromOverflow(Tick t)
{
    const Tick blockEnd = t | ((Tick(1) << spanBits) - 1);
    for (;;) {
        dropSquashedTop();
        if (heap.empty() || heap.front().when > blockEnd)
            break;
        const Entry e = popTop();
        placeWheel(e);
    }
}

Tick
EventQueue::computeMin()
{
    // Mid-drain remnants of the active tick still count as pending.
    if (draining) {
        for (std::size_t i = drainPos; i < drainBatch.size(); ++i)
            if (drainBatch[i].evTag)
                return curTick;
    }
    // Level hierarchy: every live level-0 tick precedes every level-1
    // tick, which precedes every level-2 tick, which precedes every
    // overflow tick — so the first occupied level decides the min.
    if (!levelEmpty(0)) {
        const std::size_t idx = lowestSetIndex(occupied[0]);
        return (wheelBase & ~Tick(slotMask)) | Tick(idx);
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
    dropSquashedTop();
    return heap.empty() ? maxTick : heap.front().when;
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
        if (drainBatch[i].evTag && drainBatch[i].when < earliest)
            earliest = drainBatch[i].when;
    for (const Entry &e : heap)
        if (!squashed(e) && e.when < earliest)
            earliest = e.when;
    return earliest;
}

std::uint64_t
EventQueue::fireTickSlow()
{
    std::uint64_t fired = 0;
    // Every curTick entry lives in the level-0 slot (the overflow
    // refill runs before the base reaches a block). Swap the slot out
    // and fire it in one pass; events scheduled into the same tick
    // mid-drain land in the (now empty) slot and are picked up by the
    // outer loop — still in seq order, since new seqs exceed every
    // batched one.
    const std::size_t idx = slotIndex(0, curTick);
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
        // ascending seqs, and cascades/refills preserve the relative
        // order of same-tick entries. (Whole level-1/2 slots are NOT
        // seq-sorted — the overflow refill interleaves ticks in
        // (when, seq) order — but that never reaches this drain
        // unsorted.) Keep a defensive re-sort behind the cheap check.
        if (!std::is_sorted(drainBatch.begin(), drainBatch.end(), bySeq))
            std::sort(drainBatch.begin(), drainBatch.end(), bySeq);
        for (drainPos = 0; drainPos < drainBatch.size(); ++drainPos) {
            const Entry e = drainBatch[drainPos];
            if (!e.evTag)
                continue; // descheduled mid-drain
            fireEntry(e);
            ++fired;
        }
        drainBatch.clear();
        drainPos = 0;
    }
    // Defensively, any overflow entry at exactly curTick (the refill
    // never leaves one there).
    for (;;) {
        dropSquashedTop();
        if (heap.empty() || heap.front().when != curTick)
            break;
        fireEntry(popTop());
        ++fired;
    }
    draining = false;
    // The cached min was consumed. An empty queue re-validates at
    // maxTick immediately, so the dominant schedule-one/run-one cycle
    // updates the min on schedule and skips the recompute entirely.
    cachedMin = maxTick;
    minValid = empty();
    return fired;
}

void
EventQueue::insertAt(const Entry &e)
{
    if (minValid && e.when < cachedMin)
        cachedMin = e.when;
    ++livePending;
    if ((e.when ^ wheelBase) >> spanBits) {
        push(e);
        return;
    }
    const auto bySeq = [](const Entry &a, const Entry &b) {
        return a.seq < b.seq;
    };
    if (draining && e.when == curTick) {
        // The tick is being drained: the entry belongs among the
        // batch's unfired remainder (the slot only holds schedules
        // made during this drain, all of which sort after it).
        drainBatch.insert(std::upper_bound(drainBatch.begin() +
                                               drainPos + 1,
                                           drainBatch.end(), e, bySeq),
                          e);
        return;
    }
    const unsigned l = levelFor(e.when);
    const std::size_t idx = slotIndex(l, e.when);
    auto &slot = slots[l][idx];
    // Level-1/2 slots mix ticks; only same-tick order matters.
    auto it = std::find_if(slot.begin(), slot.end(), [&e](const Entry &o) {
        return o.when == e.when && o.seq > e.seq;
    });
    slot.insert(it, e);
    markSlot(l, idx);
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
    insertAt(Entry{z.g, seq, Entry::tag(ev, false)});
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
        forgetRecovered(e.ev());
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
    std::size_t squashedInHeap = 0;
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
            // down. Whole level-1/2 slots need NOT be seq-sorted: the
            // overflow refill emits entries in (when, seq) order, so
            // a multi-tick slot can interleave ticks out of seq
            // order. A level-0 slot covers a single tick, so there
            // the same-tick rule makes the whole slot seq-sorted.
            seqByTick.clear();
            for (const Entry &e : slot) {
                if (!e.evTag)
                    return false; // tombstone outside the drain batch
                if (levelFor(e.when) != l ||
                    slotIndex(l, e.when) != idx)
                    return false;
                if (e.when < wheelBase)
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
        if (drainBatch[i].evTag)
            ++liveInWheel;

    for (const Entry &e : heap) {
        if (squashed(e)) {
            ++squashedInHeap;
            continue;
        }
        if (!draining && !((e.when ^ wheelBase) >> spanBits))
            return false; // in-horizon event stuck in the overflow
    }
    if (squashedInHeap != squashedCount)
        return false;
    if (livePending != liveInWheel + heap.size() - squashedInHeap)
        return false;

    return wheelBase <= curTick;
}

void
EventQueueRestoreAccess::clearPending(EventQueue &eq)
{
    SIM_ASSERT(!eq.draining,
               "checkpoint restore from inside event dispatch");
    auto drop = [&eq](std::vector<EventQueue::Entry> &v) {
        for (EventQueue::Entry &e : v) {
            if (!e.evTag)
                continue;
            if (e.owned()) {
                eq.releaseOneShot(static_cast<OneShotEvent *>(e.ev()));
            } else {
                e.ev()->_scheduled = false;
            }
        }
        v.clear();
    };
    for (auto &level : eq.slots)
        for (auto &slot : level)
            drop(slot);
    for (auto &words : eq.occupied)
        words.fill(0);
    drop(eq.drainBatch);
    eq.drainPos = 0;
    drop(eq.heap);
    // Sleepers' owners reset their own state on restore.
    eq.sleeps.clear();
    eq.recovered.clear();
    eq.dispatchLog.clear();
    eq.sleepActive = false;
    eq.dispatchSeq = EventQueue::betweenDispatches;
    eq.livePending = 0;
    eq.squashedCount = 0;
    eq.nextSeq = 0;
    eq.cachedMin = maxTick;
    eq.minValid = true;
}

} // namespace sim
