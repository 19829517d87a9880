/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue totally orders (tick, sequence, event) entries.
 * Events scheduled for the same tick fire in insertion order, which
 * makes simulations fully deterministic. There is one kind of entry:
 * every scheduled callback is an Event its owner holds (a member of
 * the owning SimObject, or one per pending item in a container with
 * stable addresses), so every pending callback is named, can be
 * descheduled, and can be checkpointed by its owner as {when, seq}.
 *
 * The scheduler is a hierarchical timing wheel: eight levels of 256
 * slots each (8 bits of tick per level), so every 64-bit tick has a
 * slot and there is no horizon. Level-0 slots cover exactly one tick,
 * so a slot IS the same-tick dispatch batch: schedule, deschedule and
 * pop are O(1) for the short-horizon events that dominate the
 * workload (per-cacheline DMA completions, 250–500 ns link hops, ring
 * polls, 1 us telemetry). Far events sit in a higher level and
 * cascade down as now() crosses into their block. The differential
 * tests check the firing order against a plain binary-heap reference
 * queue in tests/sim/.
 *
 * Fused same-tick dispatch: runUntil() drains all events of the
 * current tick in one pass (in seq order) without re-entering the
 * scheduler between them. Deschedule erases the entry exactly.
 *
 * Sleeping events: an event that would reschedule itself every
 * `period` ticks with no effect but counters (an idle PMD poll) can
 * sleep() instead. The queue dispatches none of the repeats; it
 * counts them when asked and, on wake(), schedules the next repeat at
 * the exact (tick, seq) position it would have had. Real schedules
 * take even entry seqs (2n for the n-th); a recovered repeat takes
 * the odd position 2n - 1 just ahead of the n-th real schedule,
 * which is where its own schedule would have sorted.
 *
 * The agent: an AgentEvent (a DMA pump, an MLC prefetch issue: a
 * producer that re-arms itself once per cacheline) is not placed in
 * the wheel. Every pending one sits in the agent's flat calendar, and
 * the agent holds one wheel entry at its earliest member's (tick,
 * seq). A member schedule still takes a fresh seq, so same-tick order
 * against every other event is unchanged. When the agent's entry
 * fires it runs that member, then keeps running the next earliest
 * member inline, moving now() forward (run-ahead), as long as no
 * other entry is due at or before the member's tick and the tick is
 * within the run call's limit. On a tie it gives way: its entry goes
 * back into the wheel at the member's (tick, seq), where the member
 * would have sorted. Each inline step is logged for the sleepers like
 * a dispatch, so processedEvents() counts wheel dispatches and
 * logicalSteps() counts dispatches plus inline steps: the work a
 * queue without the agent would have dispatched.
 */

#ifndef IDIO_SIM_EVENT_QUEUE_HH
#define IDIO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
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
    Event() = default;
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

  protected:
    /** For AgentEvent: the queue runs the event through its agent. */
    explicit Event(bool agentMember) : _agent(agentMember) {}

  private:
    friend class EventQueue;
    friend struct EventQueueRestoreAccess;

    bool _scheduled = false;
    bool _agent = false;
    Tick _when = 0;
    std::uint64_t _seq = 0; // identifies the live queue entry
};

/**
 * An event the queue runs through its agent (see the file comment):
 * schedule and deschedule it like any Event. Meant for producers that
 * re-arm themselves at a short fixed interval and that nothing else
 * is due between, most of the time.
 */
class AgentEvent : public Event
{
  protected:
    AgentEvent() : Event(true) {}
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
     * Hot-path variant of nextEventTick(). The result is cached across
     * calls and recomputed lazily; the level-occupancy bitmaps find
     * the first occupied slot without visiting empty ones. Does not
     * change pending() or fire anything.
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
     * @return number of wheel dispatches.
     */
    std::uint64_t
    runUntil(Tick limit)
    {
        runLimit = limit;
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

    /**
     * Wheel dispatches since construction or restore (the agent's
     * inline steps not included).
     */
    std::uint64_t processedEvents() const { return nProcessed; }

    /**
     * Events run: dispatches plus the agent's inline steps, carried
     * across a checkpoint. Independent of how the queue batches them.
     */
    std::uint64_t logicalSteps() const { return nSteps; }

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

    // Wheel geometry: eight levels of 256 slots, level l's slots
    // 2^(8*l) ticks wide, cover all 64 bits of a tick.
    static constexpr unsigned slotBits = 8;
    static constexpr std::size_t slotCount = std::size_t(1)
                                             << slotBits;
    static constexpr std::size_t slotMask = slotCount - 1;
    static constexpr unsigned numLevels = 8;
    static constexpr std::size_t wordsPerLevel = slotCount / 64;
    static_assert(slotBits * numLevels == 64, "every tick needs a slot");

    /**
     * A queue entry: 24 bytes. A null event marks an entry descheduled
     * while its tick is being drained (the only tombstone).
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    /**
     * Level of the highest set bit of @p x (0 for x == 0). For
     * x = a ^ b: (a ^ b) >> k == 0 iff a >> k == b >> k, so this is
     * the level of the highest tick digit where a and b differ.
     */
    static unsigned
    levelOf(Tick x)
    {
        return static_cast<unsigned>(std::bit_width(x | 1) - 1) /
               slotBits;
    }

    /** Wheel level for @p when (>= curTick), placed against now(). */
    unsigned levelFor(Tick when) const { return levelOf(when ^ curTick); }

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

    /** Place an entry into its wheel slot. */
    void
    placeWheel(const Entry &e)
    {
        const unsigned l = levelFor(e.when);
        const std::size_t idx = slotIndex(l, e.when);
        slots[l][idx].push_back(e);
        markSlot(l, idx);
    }

    /**
     * Place a new entry. Takes the fields, not an Entry: building the
     * entry in its slot keeps GCC from spilling the fresh seq and
     * reloading it as one 16-byte word (a store-forwarding stall that
     * doubled schedule cost).
     */
    void
    insert(Tick when, std::uint64_t seq, Event *ev)
    {
        if (minValid && when < cachedMin)
            cachedMin = when;
        ++livePending;
        const unsigned l = levelFor(when);
        const std::size_t idx = slotIndex(l, when);
        slots[l][idx].push_back(Entry{when, seq, ev});
        markSlot(l, idx);
    }

    /**
     * Advance now() to @p t. Precondition: no live event is scheduled
     * before @p t. Crossing a level-0 block boundary cascades the slot
     * covering @p t down.
     */
    void
    advanceTo(Tick t)
    {
        const Tick x = curTick ^ t;
        curTick = t;
        if (x >> slotBits)
            advanceSlow(x, t);
    }

    void advanceSlow(Tick x, Tick t);
    void cascade(unsigned level, std::size_t idx);

    /**
     * Dispatch one entry: unmark, invoke, bump counters. The entry is
     * already out of its container. The queue never touches the event
     * after process() returns, so process() may destroy it (a NIC
     * writeback pops its own pending record).
     */
    void
    fireEntry(const Entry &e)
    {
        --livePending;
        if (sleepActive)
            noteDispatch(e);
        dispatchSeq = e.seq;
        e.ev->_scheduled = false;
        e.ev->process();
        ++nProcessed;
        ++nSteps;
    }

    /**
     * Fire every event scheduled at curTick, in seq order. The
     * singleton case (one pending event at this tick — the dominant
     * cadence) stays inline; fan-out ticks take the batch-swap drain
     * in fireTickSlow(). A dispatch of the agent that ran ahead
     * leaves the tick: then the drain stops and the run loop goes on
     * from the new now().
     */
    std::uint64_t
    fireCurTick()
    {
        const Tick t = curTick;
        const std::size_t idx = slotIndex(0, t);
        auto &slot = slots[0][idx];
        if (slot.size() == 1) {
            const Entry e = slot.front();
            slot.clear();
            clearSlotMark(0, idx);
            fireEntry(e);
            if (curTick != t) // ran ahead; the min cache is exact
                return 1;
            if (slot.empty()) { // no chained same-tick schedule
                cachedMin = maxTick;
                minValid = livePending == 0;
                return 1;
            }
            return 1 + fireTickSlow();
        }
        return fireTickSlow();
    }

    /** Batch drain of curTick's level-0 slot. */
    std::uint64_t fireTickSlow();

    Tick computeMin() const;

    /** Entry seq of the next fresh schedule (always even). */
    std::uint64_t freshSeq() { return (nextSeq++) << 1; }

    /**
     * Place an entry whose seq is not fresh (a recovered repeat, the
     * agent's entry): same-tick entries stay in ascending seq order
     * wherever it lands, the active drain batch included. The caller
     * counts it as pending or not.
     */
    void placeOrdered(const Entry &e);

    /** Take the live entry (when, seq) out of the wheel. */
    void eraseEntry(Tick when, std::uint64_t seq);

    // --- The agent ----------------------------------------------
    /** The agent's wheel entry: runs the earliest member. */
    class AgentDispatch final : public Event
    {
      public:
        explicit AgentDispatch(EventQueue &q) : q(q) {}
        void process() override { q.runAgent(); }
        std::string name() const override { return "eventq.agent"; }

      private:
        EventQueue &q;
    };

    void scheduleMember(Event *ev, Tick when, std::uint64_t seq);
    void descheduleMember(Event *ev);

    /** Index of the earliest pending member in agentCal. */
    std::size_t agentMin() const;

    /** Put the agent's entry at the earliest member, if any. */
    void placeAgent();

    /** The agent's dispatch: its members' steps, run ahead. */
    void runAgent();

    /**
     * From inside the agent's dispatch: make the member step at
     * (@p t, @p s) a logical dispatch, as fireEntry() would. Fails
     * when another entry is due at or before @p t, or @p t is past
     * the run call's limit.
     */
    bool runAhead(Tick t, std::uint64_t s, Event *ev);

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

    /** Pending members, unordered (each has its own when and seq). */
    std::vector<Entry> agentCal;
    AgentDispatch agentEvent{*this};
    /** Inside runAgent(): members are stepped, the entry is out. */
    bool agentRunning = false;
    /** Test seam: the agent runs one member per dispatch. */
    bool runAheadForbidden = false;
    /** Limit of the run call in progress (run-ahead stops there). */
    Tick runLimit = 0;

    // --- Hierarchical timing wheel --------------------------------
    // slots[l][i] (declared last) holds the entries of level l, slot
    // i, placed against curTick; level-0 slots cover exactly one tick.
    // occupied[] mirrors slot non-emptiness so the min recompute scans
    // 4 words per level instead of 256 vectors.
    std::array<std::array<std::uint64_t, wordsPerLevel>, numLevels>
        occupied{};
    std::size_t livePending = 0; // all live entries
    std::vector<Entry> cascadeScratch;

    // Fused same-tick dispatch: the active tick's slot is swapped
    // into drainBatch and fired in one pass; deschedule() tombstones
    // into the batch when an in-batch event is killed mid-dispatch.
    std::vector<Entry> drainBatch;
    std::size_t drainPos = 0;
    bool draining = false;

    // Cached earliest live tick: exact while minValid; recomputed
    // lazily from the occupancy bitmaps otherwise.
    Tick cachedMin = maxTick;
    bool minValid = true;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t nProcessed = 0;
    std::uint64_t nSteps = 0;

    // Declared last, after every scalar above. Behind the 48 KiB of
    // slot headers, the counters sat a multiple of 4 KiB past the low
    // level-0 slots, and the deschedule-churn micro ran 1.9x slower
    // (slot-header loads falsely waiting on counter stores).
    std::array<std::array<std::vector<Entry>, slotCount>, numLevels>
        slots;
};

/**
 * Test-only access to EventQueue internals.
 *
 * Exists solely so tests can corrupt the time base and prove that
 * the invariant checker and the run loop catch it; production code
 * must never touch it.
 */
struct EventQueueTestAccess
{
    /** Force the current tick, bypassing all monotonicity checks. */
    static void
    setCurTick(EventQueue &eq, Tick t)
    {
        eq.curTick = t;
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
            if (eq.drainBatch[i].ev)
                ++n;
        return n;
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

    /**
     * Let the agent run one member per dispatch from now on: every
     * member step is then its own dispatch, which is the reference
     * the run-ahead is checked against.
     */
    static void
    forbidRunAhead(EventQueue &eq)
    {
        eq.runAheadForbidden = true;
    }

    /** Member events pending in the agent's calendar. */
    static std::size_t
    agentMembers(const EventQueue &eq)
    {
        return eq.agentCal.size();
    }
};

/**
 * Checkpoint-layer access to EventQueue internals (used only by
 * src/ckpt). Restore must discard every event scheduled by fresh
 * construction/start(), set the checkpointed time base, rebuild the
 * pending set from the checkpoint against it, then force the private
 * counters to the checkpointed values. Production model code must
 * never touch this.
 */
struct EventQueueRestoreAccess
{
    /**
     * Drop every pending event and reset the sequence counter so the
     * deferred-schedule replay starts from zero. Events are only
     * unmarked, so their owners can reschedule them.
     */
    static void clearPending(EventQueue &eq);

    /** @{ Private counters the checkpoint records/restores. */
    static std::uint64_t nextSeq(const EventQueue &eq)
    {
        return eq.nextSeq;
    }

    /**
     * Set the time base of an empty queue (after clearPending(),
     * before the replay: slots are placed against it).
     */
    static void
    setCurTick(EventQueue &eq, Tick t)
    {
        SIM_ASSERT(eq.empty(), "setCurTick on a non-empty queue");
        eq.curTick = t;
    }

    static void setNextSeq(EventQueue &eq, std::uint64_t s)
    {
        eq.nextSeq = s;
    }

    /**
     * The checkpoint carries the logical-step count, which does not
     * depend on how the queue batched the steps. The dispatch count
     * is the restoring queue's own and starts over.
     */
    static void setLogicalSteps(EventQueue &eq, std::uint64_t n)
    {
        eq.nSteps = n;
        eq.nProcessed = 0;
    }
    /** @} */
};

} // namespace sim

#endif // IDIO_SIM_EVENT_QUEUE_HH
