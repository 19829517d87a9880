/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue totally orders (tick, sequence, callback) entries.
 * Events scheduled for the same tick fire in insertion order, which
 * makes simulations fully deterministic. Components either schedule
 * one-shot callbacks or derive from Event for reschedulable events
 * (e.g.\ periodic control-plane sampling).
 *
 * The scheduler is a hierarchical timing wheel: three levels of 256
 * slots each (8 bits of tick per level, 2^24 ticks of horizon).
 * Level-0 slots cover exactly one tick, so a slot IS the same-tick
 * dispatch batch: schedule, deschedule and pop are O(1) for the
 * short-horizon events that dominate the workload (per-cacheline DMA
 * completions, 250–500 ns link hops, ring polls, 1 us telemetry).
 * Events beyond the horizon spill to a binary-heap overflow level and
 * are pulled back into the wheel when the wheel base crosses into
 * their 2^24 block. The differential tests check the firing order
 * against a plain binary-heap reference queue in tests/sim/.
 *
 * Fused same-tick dispatch: runUntil() drains all events of the
 * current tick in one pass (in seq order) without re-entering the
 * scheduler between them.
 *
 * One-shot callbacks are stored in pooled OneShotEvent nodes with
 * inline callable storage: scheduling one performs no heap allocation
 * once the pool is warm (callables larger than the inline buffer spill
 * to the heap, which no simulator callback does today). Wheel entries
 * are removed exactly on deschedule; descheduled ("squashed") overflow
 * heap entries are compacted lazily so deschedule churn cannot bloat
 * the heap.
 *
 * Sleeping events: an event that would reschedule itself every
 * `period` ticks with no effect but counters (an idle PMD poll) can
 * sleep() instead. The queue dispatches none of the repeats; it
 * counts them when asked and, on wake(), schedules the next repeat at
 * the exact (tick, seq) position it would have had. Real schedules
 * take even entry seqs (2n for the n-th); a recovered repeat takes
 * the odd position 2n - 1 just ahead of the n-th real schedule,
 * which is where its own schedule would have sorted.
 */

#ifndef IDIO_SIM_EVENT_QUEUE_HH
#define IDIO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace sim
{

class EventQueue;

/** Scheduler backend: the timing wheel is the only one. */
enum class SchedulerBackend : std::uint8_t
{
    TimingWheel = 0,
};

/**
 * A reschedulable event. The owner keeps the Event alive while it is
 * scheduled; the queue holds a non-owning pointer.
 */
class Event
{
  public:
    virtual ~Event();

    /** Invoked by the queue when simulated time reaches the event. */
    virtual void process() = 0;

    /** Human-readable name for tracing. */
    virtual std::string name() const { return "anon-event"; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

    /** Tick the event is scheduled for (valid only while scheduled). */
    Tick when() const { return _when; }

    /**
     * Sequence number of the live schedule (valid only while
     * scheduled). Same-tick events fire in ascending sequence order;
     * checkpointing records it so restore can reproduce the order.
     * Even for a fresh schedule, odd for a recovered sleeping repeat.
     */
    std::uint64_t seq() const { return _seq; }

  private:
    friend class EventQueue;
    friend struct EventQueueRestoreAccess;

    bool _scheduled = false;
    Tick _when = 0;
    std::uint64_t _seq = 0; // identifies the live queue entry
};

/**
 * Pooled one-shot event used by EventQueue::schedule(Tick, callable).
 *
 * The callable is type-erased into a fixed inline buffer (no heap
 * allocation, no std::function); a callable too large for the buffer
 * is boxed into a unique_ptr whose 8-byte handle fits inline. Nodes
 * are owned and recycled by the EventQueue's free list, so the steady
 * state of a simulation performs zero allocations per one-shot.
 *
 * Declared final so the queue's hot path can call process()
 * non-virtually for entries it owns.
 */
class OneShotEvent final : public Event
{
  public:
    OneShotEvent() = default;
    ~OneShotEvent() override { disarm(); }

    /** Invoke and consume the stored callable (single indirect call). */
    void
    process() override
    {
        auto fire = invokeFn;
        invokeFn = nullptr;
        destroyFn = nullptr;
        fire(storage);
    }

    std::string name() const override { return "one-shot-event"; }

    /**
     * Store @p fn; the previous callable must be disarmed already.
     * invokeFn CONSUMES the callable (invoke + destroy in one
     * type-erased call, so the fire path pays a single indirect
     * call); destroyFn destroys without invoking, for the disarm
     * path.
     */
    template <typename F>
    void
    arm(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= storageBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage)) // lint: allow(no-naked-new)
                Fn(std::forward<F>(fn));
            invokeFn = [](void *p) {
                Fn *f = static_cast<Fn *>(p);
                (*f)();
                f->~Fn();
            };
            destroyFn = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        } else {
            // Oversized callable: box it; the unique_ptr fits inline.
            arm([boxed = std::make_unique<Fn>(std::forward<F>(fn))] {
                (*boxed)();
            });
        }
    }

    /** Destroy the stored callable (idempotent). */
    void
    disarm()
    {
        if (destroyFn) {
            destroyFn(storage);
            destroyFn = nullptr;
            invokeFn = nullptr;
        }
    }

  private:
    friend class EventQueue;

    static constexpr std::size_t storageBytes = 48;

    alignas(std::max_align_t) unsigned char storage[storageBytes];
    void (*invokeFn)(void *) = nullptr;
    void (*destroyFn)(void *) = nullptr;
    OneShotEvent *nextFree = nullptr; // intrusive pool free list
};

/**
 * Owner of a sleeping event (see EventQueue::sleep()).
 */
class Sleeper
{
  public:
    /**
     * @p n more skipped dispatches have happened. Called at the
     * moment something could observe them, never ahead of time.
     */
    virtual void sleptThrough(std::uint64_t n) = 0;

    /** The queue has scheduled the sleeping event again. */
    virtual void awoke() = 0;

  protected:
    ~Sleeper() = default;
};

/**
 * The central event queue and time base for one Simulation.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    // Kept as constants: benchmark build stamps record the backend.
    static SchedulerBackend
    defaultBackend()
    {
        return SchedulerBackend::TimingWheel;
    }
    static const char *backendName(SchedulerBackend) { return "wheel"; }

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a reschedulable event at an absolute tick.
     * The event must not already be scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /** Schedule @p ev at now() + @p delta. */
    void scheduleIn(Event *ev, Tick delta) { schedule(ev, now() + delta); }

    /**
     * Schedule a one-shot callable at an absolute tick. The callable
     * is moved into a pooled OneShotEvent: no per-call allocation.
     *
     * @return the assigned sequence number; owners that need to
     *         checkpoint the pending callback record it (together with
     *         @p when) so restore can replay the exact firing order.
     */
    template <typename F>
    std::uint64_t
    schedule(Tick when, F &&fn)
    {
        if (when < curTick)
            panic("one-shot event scheduled in the past (%llu < %llu)",
                  (unsigned long long)when,
                  (unsigned long long)curTick);
        OneShotEvent *ev = acquireOneShot();
        ev->arm(std::forward<F>(fn));
        // One-shots are anonymous: nothing outside the queue holds a
        // pointer, so the Event-side bookkeeping (_scheduled, _when,
        // _seq) is skipped on this hot path. Identity lives in the
        // Entry alone.
        const std::uint64_t seq = freshSeq();
        insert(when, seq, Entry::tag(ev, true));
        return seq;
    }

    /** Schedule a one-shot callable at now() + delta. */
    template <typename F>
    std::uint64_t
    scheduleIn(Tick delta, F &&fn)
    {
        return schedule(now() + delta, std::forward<F>(fn));
    }

    /** Number of events currently pending. */
    std::size_t pending() const { return livePending; }

    /** True if no events remain. */
    bool empty() const { return livePending == 0; }

    /**
     * Tick of the earliest live (not descheduled) pending event, or
     * maxTick when the queue is empty. O(pending); meant for the
     * invariant checker and tests, not for hot paths.
     */
    Tick nextEventTick() const;

    /**
     * Hot-path variant of nextEventTick(): amortized O(1). The result
     * is cached across calls and recomputed lazily (level-occupancy
     * bitmaps make the recompute cheap); squashed overflow entries are
     * popped off the heap top, each pop amortized against the
     * deschedule that created it. Does not change pending() or fire
     * anything.
     */
    Tick
    peekNextTick()
    {
        if (!minValid) {
            cachedMin = computeMin();
            minValid = true;
        }
        return cachedMin;
    }

    /**
     * Run until the queue drains or simulated time would pass @p limit.
     * Events scheduled exactly at @p limit still fire. Same-tick events
     * are drained in one fused pass, in (tick, seq) order.
     *
     * @return number of events processed.
     */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t processed = 0;
        for (;;) {
            if (!minValid) {
                cachedMin = computeMin();
                minValid = true;
            }
            const Tick next = cachedMin;
            if (next > limit || livePending == 0)
                break;
            advanceTo(next);
            processed += fireCurTick();
        }
        if (curTick < limit && limit != maxTick)
            advanceTo(limit);
        wakeOnReturn();
        return processed;
    }

    /** Run until the queue drains completely. */
    std::uint64_t run() { return runUntil(maxTick); }

    /** Total events processed over the queue's lifetime. */
    std::uint64_t processedEvents() const { return nProcessed; }

    /**
     * @{ Sleeping events.
     *
     * Called from inside a dispatch, where @p ev 's owner would now
     * schedule it at @p first, and every dispatch of it would do
     * nothing observable but count before rescheduling it @p period
     * later. Instead of scheduling, the queue records that grid and
     * @p owner is credited the skipped dispatches lazily: on wake(),
     * syncSleepers(), and whenever a run call returns (which wakes
     * every sleeper). Returns false, and the caller schedules @p ev
     * as usual, when the queue cannot keep the repeats exact: the
     * grid shares a tick with another sleeper's (their relative order
     * would be lost).
     */
    bool sleep(Event *ev, Tick first, Tick period, Sleeper *owner);

    /**
     * Credit @p ev 's skipped repeats ordered before the current
     * point (the event being dispatched, or now() between dispatches)
     * and schedule its next repeat exactly where it would sit. Then
     * calls the owner's awoke(). @p ev must be asleep.
     */
    void wake(Event *ev);

    /** Credit every sleeper up to the current point; all stay asleep. */
    void syncSleepers();

    /** Wake every sleeper at the current point. */
    void
    wakeSleepers()
    {
        while (!sleeps.empty())
            wake(sleeps.back().ev);
    }

    /** Number of events currently asleep. */
    std::size_t sleeping() const { return sleeps.size(); }
    /** @} */

    /**
     * Exhaustive self-check of the scheduler's internal bookkeeping:
     * live counters match a full scan, occupancy bitmaps match slot
     * contents, every wheel entry sits in the slot its tick maps to,
     * and no live entry lies in the past. O(pending) — used by the
     * runtime invariant checker and the unit tests, never by model
     * code.
     */
    bool selfCheckConsistent() const;

  private:
    friend struct EventQueueTestAccess;
    friend struct EventQueueRestoreAccess;

    // Wheel geometry: three levels of 256 one-per-2^(8*level)-tick
    // slots cover 2^24 ticks (~16.8 ms at 1 ns ticks) of horizon;
    // later events spill to the overflow heap. The geometry constants
    // are recorded in checkpoints and validated eagerly on restore.
    static constexpr unsigned slotBits = 8;
    static constexpr std::size_t slotCount = std::size_t(1)
                                             << slotBits;
    static constexpr std::size_t slotMask = slotCount - 1;
    static constexpr unsigned numLevels = 3;
    static constexpr unsigned spanBits = slotBits * numLevels;
    static constexpr std::size_t wordsPerLevel = slotCount / 64;

    /**
     * A queue entry: 24 bytes. The owned flag (pooled OneShotEvent
     * recycled by the queue) is packed into bit 0 of the event
     * pointer — Event alignment guarantees it is free.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uintptr_t evTag;

        static std::uintptr_t
        tag(const Event *ev, bool owned)
        {
            return reinterpret_cast<std::uintptr_t>(ev) |
                   std::uintptr_t(owned);
        }

        Event *
        ev() const
        {
            return reinterpret_cast<Event *>(evTag & ~std::uintptr_t(1));
        }

        bool owned() const { return (evTag & 1) != 0; }

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Min-heap ordering for std::push_heap/std::pop_heap. */
    struct EntryAfter
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a > b;
        }
    };

    /**
     * True when an overflow-heap entry no longer refers to a live
     * schedule. deschedule() nulls the entry's pointer eagerly — the
     * owner may destroy the Event as soon as it is descheduled, so a
     * squashed entry must never be dereferenced. (Wheel entries are
     * erased exactly instead; only the drain batch uses tombstones,
     * for deschedule-during-dispatch.)
     */
    static bool squashed(const Entry &e) { return e.evTag == 0; }

    /**
     * Wheel level for @p when relative to the current base, or
     * numLevels for the overflow heap. The XOR trick compares block
     * prefixes: (a ^ b) >> k == 0 iff a >> k == b >> k.
     */
    unsigned
    levelFor(Tick when) const
    {
        const Tick x = when ^ wheelBase;
        if (!(x >> slotBits))
            return 0;
        if (!(x >> (2 * slotBits)))
            return 1;
        if (!(x >> spanBits))
            return 2;
        return numLevels;
    }

    static std::size_t
    slotIndex(unsigned level, Tick when)
    {
        return (when >> (slotBits * level)) & slotMask;
    }

    void
    markSlot(unsigned level, std::size_t idx)
    {
        occupied[level][idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    void
    clearSlotMark(unsigned level, std::size_t idx)
    {
        occupied[level][idx >> 6] &=
            ~(std::uint64_t(1) << (idx & 63));
    }

    bool
    levelEmpty(unsigned level) const
    {
        const auto &w = occupied[level];
        return (w[0] | w[1] | w[2] | w[3]) == 0;
    }

    /** Place an entry into its wheel slot (never the heap). */
    void
    placeWheel(const Entry &e)
    {
        const unsigned l = levelFor(e.when);
        const std::size_t idx = slotIndex(l, e.when);
        slots[l][idx].push_back(e);
        markSlot(l, idx);
    }

    /**
     * Route a new entry to the wheel or the overflow heap. Takes the
     * fields, not an Entry: building the entry in its slot keeps GCC
     * from spilling the fresh seq and reloading it as one 16-byte
     * word (a store-forwarding stall that doubled schedule cost).
     */
    void
    insert(Tick when, std::uint64_t seq, std::uintptr_t evTag)
    {
        if (minValid && when < cachedMin)
            cachedMin = when;
        ++livePending;
        if ((when ^ wheelBase) >> spanBits) {
            push(Entry{when, seq, evTag});
            return;
        }
        const unsigned l = levelFor(when);
        const std::size_t idx = slotIndex(l, when);
        slots[l][idx].push_back(Entry{when, seq, evTag});
        markSlot(l, idx);
    }

    /**
     * Advance the time base to @p t. Precondition: no live event is
     * scheduled before @p t. Cascades the level-1/2 slots covering
     * @p t when the base crosses their block boundaries, and refills
     * the wheel from the overflow heap on 2^24 crossings.
     */
    void
    advanceTo(Tick t)
    {
        const Tick x = wheelBase ^ t;
        curTick = t;
        if (!(x >> slotBits)) { // same level-0 block (or no move)
            wheelBase = t;
            return;
        }
        advanceSlow(t);
    }

    void advanceSlow(Tick t);
    void cascade(unsigned level, std::size_t idx);
    void refillFromOverflow(Tick t);

    /**
     * Dispatch one entry: unmark, invoke, recycle (for pooled
     * one-shots the invoke is a single devirtualized indirect call
     * that consumes the callable), bump counters. The entry is
     * already out of its container.
     */
    void
    fireEntry(const Entry &e)
    {
        --livePending;
        if (sleepActive)
            noteDispatch(e);
        dispatchSeq = e.seq;
        if (e.owned()) {
            // The queue created this node, so its dynamic type is
            // exactly OneShotEvent (final): call non-virtually, then
            // push it straight onto the free list (process() consumed
            // the callable, so no disarm is needed).
            auto *os = static_cast<OneShotEvent *>(e.ev());
            os->OneShotEvent::process();
            os->nextFree = freeOneShots;
            freeOneShots = os;
        } else {
            Event *ev = e.ev();
            ev->_scheduled = false;
            ev->process();
        }
        ++nProcessed;
    }

    /**
     * Fire every event scheduled at curTick, in seq order. The
     * singleton case (one pending event at this tick — the dominant
     * cadence) stays inline; fan-out ticks take the batch-swap drain
     * in fireTickSlow().
     */
    std::uint64_t
    fireCurTick()
    {
        const std::size_t idx = slotIndex(0, curTick);
        auto &slot = slots[0][idx];
        if (slot.size() == 1) {
            const Entry e = slot.front();
            slot.clear();
            clearSlotMark(0, idx);
            fireEntry(e);
            if (slot.empty()) { // no chained same-tick schedule
                cachedMin = maxTick;
                minValid = livePending == 0;
                return 1;
            }
            return 1 + fireTickSlow();
        }
        return fireTickSlow();
    }

    /** Batch drain of curTick: wheel slot swap + overflow loop. */
    std::uint64_t fireTickSlow();

    Tick computeMin();

    void push(const Entry &e);
    Entry popTop();

    /** Pop squashed entries off the heap top (amortized O(1)). */
    void
    dropSquashedTop()
    {
        while (!heap.empty() && squashed(heap.front())) {
            popTop();
            --squashedCount;
        }
    }

    /**
     * Remove every squashed overflow entry and re-heapify. Called when
     * squashed entries outnumber live ones so deschedule churn keeps
     * the heap within 2x of its live population.
     */
    void compact();

    OneShotEvent *acquireOneShot();
    void releaseOneShot(OneShotEvent *ev);

    /** Entry seq of the next fresh schedule (always even). */
    std::uint64_t freshSeq() { return (nextSeq++) << 1; }

    /**
     * Place an entry whose seq is not fresh (a recovered repeat):
     * same-tick entries stay in ascending seq order wherever it
     * lands, the active drain batch included.
     */
    void insertAt(const Entry &e);

    // --- Sleeping events ----------------------------------------
    // A sleeper's next skipped repeat sits at tick `g` with entry seq
    // 2r - 1: just ahead of the r-th real schedule, which is where a
    // schedule made when the real counter read r sorts. Each repeat's
    // successor takes the counter value at the repeat's own position
    // in the dispatch order, which the dispatch log answers: the
    // counter before the first dispatch ordered after it.

    /** Between-dispatch bound: after every dispatch of curTick. */
    static constexpr std::uint64_t betweenDispatches = ~std::uint64_t(0);

    struct SleepRec
    {
        Event *ev;
        Sleeper *owner;
        Tick g;             ///< tick of the first uncredited repeat
        Tick period;
        Tick phase;         ///< g % period (grid identity)
        std::uint64_t r;    ///< its position: entry seq 2r - 1
        std::size_t logPos; ///< dispatchLog[0, logPos) precede it
    };

    /** One logged dispatch while any event sleeps. */
    struct DispatchRec
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t seqCounter; ///< nextSeq when the dispatch began
    };

    /** A woken sleeper's recovered repeat, until it fires. */
    struct Recovered
    {
        const Event *ev;
        Tick when;
    };

    /** Log cap: past it, sleepers are credited and the log trimmed. */
    static constexpr std::size_t dispatchLogCap = 4096;

    /** Sleeping-event bookkeeping for one dispatch (slow path). */
    void noteDispatch(const Entry &e);

    /** Drop @p ev from the recovered-repeat list (if present). */
    void forgetRecovered(const Event *ev);

    /**
     * Advance @p z past every repeat ordered before the bound (T, s)
     * (s an entry seq, exclusive). @return the repeats passed.
     */
    std::uint64_t resolveSleep(SleepRec &z, Tick t, std::uint64_t s);

    /** Counter value a dispatch at (g, 2r - 1) would schedule with. */
    std::uint64_t seqCounterAfter(const SleepRec &z, Tick g,
                                  std::uint64_t r) const;

    /** Position r of @p z 's repeat number @p i (0 = z.g). */
    std::uint64_t repeatPos(const SleepRec &z, std::uint64_t i) const;

    /** First log index >= @p from whose tick is >= @p t. */
    std::size_t logLowerBound(std::size_t from, Tick t) const;

    /** Wake every sleeper with bound (t, s). */
    void wakeAllAt(Tick t, std::uint64_t s);

    /**
     * A run call returns: harness code may read or schedule next, so
     * every sleeper wakes, after all of curTick's dispatches.
     */
    void
    wakeOnReturn()
    {
        dispatchSeq = betweenDispatches;
        if (!sleeps.empty())
            wakeAllAt(curTick, betweenDispatches);
    }

    /** wake() with an explicit bound. */
    void wakeAt(Event *ev, Tick t, std::uint64_t s);

    void
    updateSleepActive()
    {
        sleepActive = !sleeps.empty() || !recovered.empty();
    }

    std::vector<SleepRec> sleeps;
    std::vector<Recovered> recovered;
    std::vector<DispatchRec> dispatchLog;
    /**
     * Seq of the entry being (or last) dispatched; reset to
     * betweenDispatches when a run call returns, the only point
     * outside a dispatch where model code runs.
     */
    std::uint64_t dispatchSeq = betweenDispatches;
    /** Any sleeper or recovered repeat exists (dispatch slow path). */
    bool sleepActive = false;
    /** Test seam: refuse every sleep() (never-parking reference). */
    bool sleepForbidden = false;

    // --- Hierarchical timing wheel --------------------------------
    // slots[l][i] holds the entries of level l, slot i; level-0 slots
    // cover exactly one tick. occupied[] mirrors slot non-emptiness
    // so the min recompute scans 4 words per level instead of 256
    // vectors. wheelBase is the tick the slot indexing is anchored
    // at; it trails curTick only transiently after a restore.
    std::array<std::array<std::vector<Entry>, slotCount>, numLevels>
        slots;
    std::array<std::array<std::uint64_t, wordsPerLevel>, numLevels>
        occupied{};
    Tick wheelBase = 0;
    std::size_t livePending = 0; // all live entries (wheel + heap)
    std::vector<Entry> cascadeScratch;

    // Fused same-tick dispatch: the active tick's slot is swapped
    // into drainBatch and fired in one pass; deschedule() tombstones
    // into the batch when an in-batch event is killed mid-dispatch.
    std::vector<Entry> drainBatch;
    std::size_t drainPos = 0;
    bool draining = false;

    // Cached earliest live tick: exact while minValid; recomputed
    // lazily from the occupancy bitmaps + heap top otherwise.
    Tick cachedMin = maxTick;
    bool minValid = true;

    // --- Overflow level ------------------------------------------
    // A plain vector managed with the <algorithm> heap primitives
    // (rather than std::priority_queue) so nextEventTick() and the
    // invariant checker can inspect pending entries in place.
    std::vector<Entry> heap;
    std::size_t squashedCount = 0;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t nProcessed = 0;

    // One-shot node pool: `oneShotPool` owns every node ever created;
    // `freeOneShots` chains the currently idle ones.
    std::vector<std::unique_ptr<OneShotEvent>> oneShotPool;
    OneShotEvent *freeOneShots = nullptr;
};

/**
 * Test-only access to EventQueue internals.
 *
 * Exists solely so the invariant-checker unit tests can corrupt the
 * time base and prove the checker catches it; production code must
 * never touch it.
 */
struct EventQueueTestAccess
{
    /** Force the current tick, bypassing all monotonicity checks. */
    static void
    setCurTick(EventQueue &eq, Tick t)
    {
        eq.curTick = t;
    }

    /**
     * Raw overflow-heap slots (live + squashed), for compaction
     * tests. Wheel entries never appear here: deschedule removes
     * them exactly.
     */
    static std::size_t
    heapSlots(const EventQueue &eq)
    {
        return eq.heap.size();
    }

    /** Live entries currently resident in the wheel (full scan). */
    static std::size_t
    wheelEntries(const EventQueue &eq)
    {
        std::size_t n = 0;
        for (const auto &level : eq.slots)
            for (const auto &slot : level)
                n += slot.size();
        for (std::size_t i = eq.drainPos; i < eq.drainBatch.size();
             ++i)
            if (eq.drainBatch[i].evTag)
                ++n;
        return n;
    }

    /** Nodes in the one-shot pool (idle + in flight). */
    static std::size_t
    oneShotPoolSize(const EventQueue &eq)
    {
        return eq.oneShotPool.size();
    }

    /**
     * Refuse every later sleep(): the queue then dispatches every
     * repeat, which is the reference the sleeping path is checked
     * against.
     */
    static void
    forbidSleep(EventQueue &eq)
    {
        eq.sleepForbidden = true;
    }
};

/**
 * Checkpoint-layer access to EventQueue internals (used only by
 * src/ckpt). Restore must discard every event scheduled by fresh
 * construction/start() and rebuild the pending set from the
 * checkpoint, then force the private time base and counters to the
 * checkpointed values. Production model code must never touch this.
 */
struct EventQueueRestoreAccess
{
    /**
     * Drop every pending event and reset the sequence counter so the
     * deferred-schedule replay starts from zero. Owned one-shot nodes
     * go back to the pool; non-owned events are simply unmarked so
     * their owners can reschedule them.
     */
    static void clearPending(EventQueue &eq);

    /** @{ Private counters the checkpoint records/restores. */
    static std::uint64_t nextSeq(const EventQueue &eq)
    {
        return eq.nextSeq;
    }

    /**
     * Wheel base tick (== now() except transiently after restore).
     * Recorded in checkpoints for eager validation.
     */
    static Tick wheelBase(const EventQueue &eq)
    {
        return eq.wheelBase;
    }

    /** @{ Wheel geometry constants (checkpoint validation). */
    static std::uint32_t wheelLevels() { return EventQueue::numLevels; }
    static std::uint32_t wheelSlotBits() { return EventQueue::slotBits; }
    /** @} */

    /**
     * Force the time base. The wheel base is left untouched: replayed
     * entries were placed relative to it, and the first advance
     * cascades it forward to the restored tick.
     */
    static void setCurTick(EventQueue &eq, Tick t) { eq.curTick = t; }

    static void setNextSeq(EventQueue &eq, std::uint64_t s)
    {
        eq.nextSeq = s;
    }

    static void setProcessed(EventQueue &eq, std::uint64_t n)
    {
        eq.nProcessed = n;
    }
    /** @} */
};

} // namespace sim

#endif // IDIO_SIM_EVENT_QUEUE_HH
