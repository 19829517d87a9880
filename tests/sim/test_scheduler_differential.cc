/**
 * @file
 * Differential tests of the timing-wheel scheduler against a plain
 * binary-heap reference queue (reference_queue.hh).
 *
 * The timing wheel must fire events in exactly the (tick, seq) total
 * order the reference uses — the repo's whole determinism contract
 * (byte-equal stats, traces and checkpoints) rests on it. These tests
 * drive randomized schedule / deschedule / reschedule workloads with
 * random runUntil slices through both queues in lockstep and assert
 * the firing sequences and assigned sequence numbers are identical
 * event by event, with tick deltas drawn to span the wheel levels
 * (L0 same-tick slots, L1/L2 cascades, and levels 3-5 out to 2^40
 * ticks) and to land next to block boundaries.
 *
 * Agent members (sim::AgentEvent) re-arm themselves from inside
 * their steps, as DMA pumps and prefetch issues do, at deltas that
 * often cross a level-0 block boundary or tie with other events. The
 * reference models the agent's run-ahead naively, so the dispatch and
 * logical-step counts must match too.
 *
 * The full-system mid-burst checkpoint gate (stats + trace
 * byte-equality across save/restore) lives in tests/ckpt/ and
 * tests/integration/; here a queue-level rebuild test covers the
 * restore path (set the time base of a fresh wheel, then replay).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "callback_event.hh"
#include "reference_queue.hh"
#include "sim/event_queue.hh"

namespace
{

using sim::Event;
using sim::EventQueue;
using sim::Tick;

struct Firing
{
    Tick when;
    int id;

    bool
    operator==(const Firing &o) const
    {
        return when == o.when && id == o.id;
    }
};

class ScriptedEvent : public Event
{
  public:
    ScriptedEvent(const EventQueue &q, std::vector<Firing> &log, int id)
        : q(q), log(log), id(id)
    {
    }

    void process() override { log.push_back({q.now(), id}); }

  private:
    const EventQueue &q;
    std::vector<Firing> &log;
    int id;
};

/** splitmix64: an agent member's plan for one step. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A short re-arm delta from @p now: same tick, a few ticks, the
 * pump's and issue's 2000 and 5000, or within one of the next level-0
 * or level-1 block boundary.
 */
Tick
rearmDelta(std::uint64_t r, Tick now)
{
    switch (r % 5) {
    case 0:
        return (r >> 8) % 3;
    case 1:
        return 1 + (r >> 8) % 16;
    case 2:
        return (r >> 8) % 2 ? 2000 : 5000;
    default: {
        const unsigned k = r % 5 == 3 ? 8 : 16;
        const Tick boundary = ((now >> k) + 1) << k;
        return boundary - now + (r >> 8) % 3 - 1;
    }
    }
}

/** Largest delta drawDelta() returns (a 2^40 block plus slack). */
constexpr Tick maxDelta = (Tick(1) << 41);

/**
 * Tick deltas from @p now spanning the wheel: level-0 slots (same
 * tick and near-future), level-1/2 cascade distances, levels 3-5
 * (2^24 to 2^40 ticks out), and ticks within one of the next 2^k
 * boundary (k = 8..40), where a cascade crosses block boundaries.
 */
Tick
drawDelta(std::mt19937_64 &rng, Tick now)
{
    switch (rng() % 6) {
    case 0:
        return rng() % 16; // L0 (incl. same-tick)
    case 1:
        return rng() % (Tick(1) << 12); // L1
    case 2:
        return rng() % (Tick(1) << 20); // L2
    case 3:
        return rng() % (Tick(1) << 28); // L3
    case 4: // L3-L5
        return (Tick(1) << 24) +
               rng() % ((Tick(1) << 40) - (Tick(1) << 24));
    default: { // next to a 2^k block boundary
        const unsigned k = 8 * unsigned(1 + rng() % 5);
        const Tick boundary = ((now >> k) + 1) << k;
        return boundary - now + rng() % 3 - 1;
    }
    }
}

/**
 * A wheel and a reference queue driven by one op stream. Every op is
 * applied to both; their firing logs, sequence numbers and observers
 * must stay equal. Members are reschedulable events on the wheel side
 * and tracked seqs on the reference side; callbacks are test-only
 * events that may schedule a chained callback from inside their
 * dispatch.
 */
class Lockstep
{
  public:
    explicit Lockstep(int nMembers, int nAgents = 0)
        : refSeq(nMembers, none), refAgentSeq(nAgents, none),
          agentSteps(nAgents, {0, 0})
    {
        for (int i = 0; i < nMembers; ++i) {
            members.push_back(std::make_unique<ScriptedEvent>(
                wheel, wheelLog, memberId(i)));
        }
        for (int i = 0; i < nAgents; ++i)
            agents.push_back(std::make_unique<AgentMember>(*this, i));
    }

    ~Lockstep()
    {
        for (auto &m : members)
            if (m->scheduled())
                wheel.deschedule(m.get());
        for (auto &a : agents)
            if (a->scheduled())
                wheel.deschedule(a.get());
    }

    /**
     * One random op. A quarter of the schedules reuse the tick of a
     * recent schedule, so same-tick neighbours (seq order within a
     * slot, deschedule next to a same-tick entry) are common rather
     * than a rare collision.
     */
    void
    apply(std::mt19937_64 &rng)
    {
        const std::uint64_t kind = rng() % (agents.empty() ? 8 : 10);
        const std::size_t m = rng() % members.size();
        const Tick delta = drawDelta(rng, wheel.now());
        const bool reuse = rng() % 4 == 0;
        Tick when = wheel.now() + delta;
        if (reuse) {
            const Tick t = recent[rng() % recent.size()];
            if (t >= wheel.now())
                when = t;
        }
        switch (kind) {
        case 0:
        case 1: { // callback, sometimes chaining a second from inside
            const bool chain = rng() % 4 == 0;
            callback(++nextCallback, when, chain,
                     drawDelta(rng, wheel.now()));
            break;
        }
        case 2:
            if (!members[m]->scheduled())
                scheduleMember(m, when);
            break;
        case 3:
            if (members[m]->scheduled())
                descheduleMember(m);
            break;
        case 4: // reschedule
            if (members[m]->scheduled())
                descheduleMember(m);
            scheduleMember(m, when);
            break;
        case 8: // (re)start an agent member
        case 9: {
            const std::size_t a = rng() % agents.size();
            if (agents[a]->scheduled())
                descheduleAgent(a);
            if (kind == 8)
                scheduleAgent(a, when);
            break;
        }
        default:
            runUntil(wheel.now() + delta);
            break;
        }
    }

    void
    runUntil(Tick limit)
    {
        const std::uint64_t a = wheel.runUntil(limit);
        const std::uint64_t b = ref.runUntil(limit);
        EXPECT_EQ(a, b) << "dispatches of runUntil(" << limit << ")";
        EXPECT_EQ(wheel.logicalSteps(), ref.logicalSteps())
            << "steps of runUntil(" << limit << ")";
    }

    /**
     * Drain both queues, chains included (a chain adds maxDelta).
     * Stops at the first disagreement: a wheel that loses an event
     * would otherwise never drain.
     */
    void
    drain()
    {
        while ((!wheel.empty() || !ref.empty()) &&
               !::testing::Test::HasFailure())
            runUntil(wheel.now() + 2 * maxDelta);
    }

    /** Every observer agrees between the two queues. */
    void
    expectAgree()
    {
        EXPECT_EQ(wheel.now(), ref.now());
        EXPECT_EQ(wheel.pending(), ref.pending());
        EXPECT_EQ(wheel.empty(), ref.empty());
        EXPECT_EQ(wheel.peekNextTick(), ref.nextEventTick());
        EXPECT_EQ(wheel.nextEventTick(), ref.nextEventTick());
        EXPECT_EQ(wheelLog.size(), refLog.size());
        for (std::size_t i = 0; i < members.size(); ++i) {
            const bool refScheduled =
                refSeq[i] != none && ref.scheduled(refSeq[i]);
            EXPECT_EQ(members[i]->scheduled(), refScheduled)
                << "member " << i;
        }
        for (std::size_t i = 0; i < agents.size(); ++i) {
            EXPECT_EQ(agents[i]->scheduled(), refAgentSeq[i] != none)
                << "agent member " << i;
        }
    }

    EventQueue wheel;
    simtest::ReferenceQueue ref;
    std::vector<Firing> wheelLog;
    std::vector<Firing> refLog;

  private:
    static constexpr std::uint64_t none = ~std::uint64_t(0);

    static int memberId(std::size_t i) { return 1000 + int(i); }
    static int agentId(std::size_t i) { return 2000 + int(i); }

    /** An agent member on the wheel side. */
    class AgentMember : public sim::AgentEvent
    {
      public:
        AgentMember(Lockstep &ls, std::size_t i) : ls(ls), i(i) {}
        void process() override { ls.agentStep(i, true); }

      private:
        Lockstep &ls;
        std::size_t i;
    };

    /**
     * Agent member @p i steps on the wheel (@p onWheel) or the
     * reference side. Its plan is a function of (i, step number)
     * only: mostly re-arm itself, sometimes also restart another
     * member or schedule a callback that may tie with members. Every
     * so often, audit the wheel from inside the agent's dispatch.
     */
    void
    agentStep(std::size_t i, bool onWheel)
    {
        const Tick now = onWheel ? wheel.now() : ref.now();
        (onWheel ? wheelLog : refLog).push_back({now, agentId(i)});
        if (!onWheel)
            refAgentSeq[i] = none;
        const std::uint64_t n = agentSteps[i][onWheel]++;
        const std::uint64_t r = mix(i * 0x100000001ull + n);
        if (onWheel && n % 64 == 0) {
            EXPECT_TRUE(wheel.selfCheckConsistent()) << "inside a step";
        }
        if (r % 8 != 0)
            scheduleAgentOn(onWheel, i, now + rearmDelta(r >> 3, now));
        const std::uint64_t r2 = mix(r);
        if (r2 % 16 == 0) {
            const std::size_t j = (r2 >> 4) % agents.size();
            if (onWheel ? agents[j]->scheduled()
                        : refAgentSeq[j] != none) {
                if (onWheel) {
                    wheel.deschedule(agents[j].get());
                } else {
                    ref.deschedule(refAgentSeq[j]);
                    refAgentSeq[j] = none;
                }
            }
            scheduleAgentOn(onWheel, j, now + rearmDelta(r2 >> 12, now));
        } else if (r2 % 16 < 3) {
            const int id = -agentId(i) * 1000 - int(n % 1000);
            const Tick when = now + rearmDelta(r2 >> 12, now);
            if (onWheel) {
                wheelCalls.at(when, [this, id] {
                    wheelLog.push_back({wheel.now(), id});
                });
            } else {
                ref.schedule(when, [this, id] {
                    refLog.push_back({ref.now(), id});
                });
            }
        }
    }

    /** Schedule agent member @p i on one side only. */
    void
    scheduleAgentOn(bool onWheel, std::size_t i, Tick when)
    {
        if (onWheel) {
            wheel.schedule(agents[i].get(), when);
            return;
        }
        refAgentSeq[i] = ref.schedule(
            when, [this, i] { agentStep(i, false); }, true);
    }

    void
    scheduleAgent(std::size_t i, Tick when)
    {
        remember(when);
        scheduleAgentOn(true, i, when);
        scheduleAgentOn(false, i, when);
        EXPECT_EQ(agents[i]->seq(), refAgentSeq[i]) << "agent member " << i;
    }

    void
    descheduleAgent(std::size_t i)
    {
        wheel.deschedule(agents[i].get());
        ref.deschedule(refAgentSeq[i]);
        refAgentSeq[i] = none;
    }

    void
    remember(Tick when)
    {
        recent[nextRecent++ % recent.size()] = when;
    }

    void
    callback(int id, Tick when, bool chain, Tick chainDelta)
    {
        remember(when);
        const std::uint64_t a = wheelCalls.at(
            when, [this, id, chain, chainDelta] {
                wheelLog.push_back({wheel.now(), id});
                if (chain) {
                    wheelCalls.in(chainDelta, [this, id] {
                        wheelLog.push_back({wheel.now(), -id});
                    });
                }
            });
        const std::uint64_t b = ref.schedule(
            when, [this, id, chain, chainDelta] {
                refLog.push_back({ref.now(), id});
                if (chain) {
                    ref.schedule(ref.now() + chainDelta, [this, id] {
                        refLog.push_back({ref.now(), -id});
                    });
                }
            });
        EXPECT_EQ(a, b) << "callback " << id << " seq";
    }

    void
    scheduleMember(std::size_t m, Tick when)
    {
        remember(when);
        wheel.schedule(members[m].get(), when);
        refSeq[m] = ref.schedule(when, [this, m] {
            refLog.push_back({ref.now(), memberId(m)});
            refSeq[m] = none;
        });
        EXPECT_EQ(members[m]->seq(), refSeq[m]) << "member " << m;
    }

    void
    descheduleMember(std::size_t m)
    {
        wheel.deschedule(members[m].get());
        ref.deschedule(refSeq[m]);
        refSeq[m] = none;
    }

    simtest::Callbacks wheelCalls{wheel};
    std::vector<std::unique_ptr<ScriptedEvent>> members;
    std::vector<std::uint64_t> refSeq;
    std::vector<std::unique_ptr<AgentMember>> agents;
    std::vector<std::uint64_t> refAgentSeq;
    /** Steps each agent member took: [reference, wheel]. */
    std::vector<std::array<std::uint64_t, 2>> agentSteps;
    std::array<Tick, 8> recent{};
    std::size_t nextRecent = 0;
    int nextCallback = 0;
};

TEST(SchedulerDifferential, RandomizedWorkloadsFireIdentically)
{
    for (const std::uint64_t seed :
         {1ull, 2ull, 42ull, 0xD1FFull, 0xC0FFEEull}) {
        Lockstep ls(24);
        std::mt19937_64 rng(seed);
        for (int op = 0; op < 4000; ++op) {
            ls.apply(rng);
            if (op % 512 == 0) {
                EXPECT_TRUE(ls.wheel.selfCheckConsistent());
            }
        }
        ls.drain();
        EXPECT_TRUE(ls.wheel.selfCheckConsistent());
        ASSERT_FALSE(ls.wheelLog.empty()) << "seed " << seed;
        ASSERT_EQ(ls.wheelLog.size(), ls.refLog.size()) << "seed " << seed;
        for (std::size_t i = 0; i < ls.refLog.size(); ++i) {
            ASSERT_EQ(ls.wheelLog[i].when, ls.refLog[i].when)
                << "seed " << seed << " firing " << i;
            ASSERT_EQ(ls.wheelLog[i].id, ls.refLog[i].id)
                << "seed " << seed << " firing " << i;
        }
    }
}

/**
 * Self-re-arming agent members among callbacks and plain members: the
 * agent runs them ahead exactly where the reference fires them, and
 * takes the dispatches the reference's model of it predicts.
 */
TEST(SchedulerDifferential, AgentRunAheadMatchesTheReference)
{
    for (const std::uint64_t seed : {3ull, 5ull, 0xA6E47ull}) {
        Lockstep ls(8, 6);
        std::mt19937_64 rng(seed);
        for (int op = 0; op < 3000; ++op) {
            ls.apply(rng);
            if (op % 256 == 0) {
                ls.expectAgree();
                EXPECT_TRUE(ls.wheel.selfCheckConsistent());
            }
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "seed " << seed << " op " << op;
        }
        ls.drain();
        ls.expectAgree();
        EXPECT_TRUE(ls.wheel.selfCheckConsistent());
        ASSERT_EQ(ls.wheelLog, ls.refLog) << "seed " << seed;
        EXPECT_LT(ls.wheel.processedEvents(), ls.wheel.logicalSteps())
            << "seed " << seed << ": nothing ran ahead";
    }
}

/**
 * Every observable (now, pending, peekNextTick, nextEventTick, empty,
 * member scheduled state) must agree after every single op, not just
 * at the end.
 */
TEST(SchedulerDifferential, StateObserversAgreeAfterEveryOp)
{
    Lockstep ls(8);
    std::mt19937_64 rng(7);
    for (int op = 0; op < 2000; ++op) {
        ls.apply(rng);
        ls.expectAgree();
        ASSERT_FALSE(::testing::Test::HasFailure()) << "op " << op;
    }
    ls.drain();
    ls.expectAgree();
    ASSERT_EQ(ls.wheelLog, ls.refLog);
}

/** One planned callback of the rebuild test. */
struct Planned
{
    Tick when;
    int id;
};

/**
 * Run @p plan uninterrupted and cut at @p cut then rebuilt; both must
 * fire identically up to @p end.
 */
void
rebuildAt(const std::vector<Planned> &plan, Tick cut, Tick end)
{
    // Uninterrupted reference run.
    std::vector<Firing> ref;
    {
        EventQueue q;
        simtest::Callbacks cb(q);
        for (const Planned &p : plan) {
            cb.at(p.when, [&q, &ref, id = p.id] {
                ref.push_back({q.now(), id});
            });
        }
        q.runUntil(end);
        ASSERT_TRUE(q.empty());
    }

    // Interrupted run: stop at `cut`, rebuild into a fresh queue.
    std::vector<Firing> firstHalf;
    {
        EventQueue q;
        simtest::Callbacks cb(q);
        for (const Planned &p : plan) {
            cb.at(p.when, [&q, &firstHalf, id = p.id] {
                firstHalf.push_back({q.now(), id});
            });
        }
        q.runUntil(cut);
    }

    std::vector<Firing> secondHalf;
    {
        EventQueue q;
        simtest::Callbacks cb(q);
        // Set the time base, then replay survivors in original
        // (ascending seq == plan) order, as ckpt::restore does.
        sim::EventQueueRestoreAccess::setCurTick(q, cut);
        for (const Planned &p : plan) {
            if (p.when <= cut)
                continue;
            cb.at(p.when, [&q, &secondHalf, id = p.id] {
                secondHalf.push_back({q.now(), id});
            });
        }
        EXPECT_TRUE(q.selfCheckConsistent());
        q.runUntil(end);
        ASSERT_TRUE(q.empty());
    }

    std::vector<Firing> combined = firstHalf;
    combined.insert(combined.end(), secondHalf.begin(),
                    secondHalf.end());
    ASSERT_EQ(combined, ref);
}


/**
 * Restore-style rebuild under the wheel: fire part of a schedule, set
 * a fresh queue's time base to the cut, move the survivors into it in
 * original sequence order (what ckpt::restore does), and check the
 * continuation fires exactly like the uninterrupted run. Cuts in the
 * low levels and past 2^32 place the replay in every level.
 */
TEST(SchedulerDifferential, RebuiltWheelContinuesIdentically)
{
    std::vector<Planned> plan;
    std::mt19937_64 rng(11);
    for (int i = 0; i < 200; ++i)
        plan.push_back({drawDelta(rng, 0) + 1, i});

    const Tick end = 2 * maxDelta;
    for (const Tick cut : {Tick(1) << 16, (Tick(1) << 33) + 12345}) {
        SCOPED_TRACE(cut);
        rebuildAt(plan, cut, end);
    }
}

/**
 * Far-future events sit in level 3 (2^26 ticks out); deschedule
 * erases them exactly there, and the survivors cascade down from
 * level 3 and fire in schedule order.
 */
TEST(SchedulerDifferential, FarFutureDescheduleErasesExactly)
{
    // Each event records the tick it fires at.
    class TickEvent : public Event
    {
      public:
        TickEvent(EventQueue &q, std::vector<Tick> &fired)
            : q(q), fired(fired)
        {
        }
        void process() override { fired.push_back(q.now()); }

      private:
        EventQueue &q;
        std::vector<Tick> &fired;
    };

    EventQueue q;
    const Tick far = Tick(1) << 26; // level 3
    std::vector<Tick> fired;
    std::vector<TickEvent> evs(64, TickEvent(q, fired));
    for (std::size_t i = 0; i < evs.size(); ++i)
        q.schedule(&evs[i], far + Tick(i));
    ASSERT_EQ(sim::EventQueueTestAccess::wheelEntries(q), 64u);

    for (std::size_t i = 0; i < evs.size(); ++i) {
        if (i % 4 != 0)
            q.deschedule(&evs[i]);
    }
    EXPECT_EQ(q.pending(), 16u);
    EXPECT_EQ(sim::EventQueueTestAccess::wheelEntries(q), 16u);
    EXPECT_TRUE(q.selfCheckConsistent());

    q.runUntil(far + 64);
    ASSERT_EQ(fired.size(), 16u);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], far + Tick(4 * i));
}

/** Restore sets the time base before the replay, on an empty queue. */
TEST(SchedulerDifferentialDeathTest, SetCurTickOnNonEmptyQueuePanics)
{
    EventQueue q;
    simtest::Callbacks cb(q);
    cb.at(10, [] {});
    EXPECT_DEATH(sim::EventQueueRestoreAccess::setCurTick(q, 5),
                 "non-empty queue");
    q.run();
}

} // namespace
