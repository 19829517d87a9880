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
 * event by event, with tick deltas drawn to span every wheel level
 * (L0 same-tick slots, L1/L2 cascades) and the overflow heap.
 *
 * The full-system mid-burst checkpoint gate (stats + trace
 * byte-equality across save/restore) lives in tests/ckpt/ and
 * tests/integration/; here a queue-level rebuild test covers the
 * restore-specific wheel path (replay into a fresh wheel, then force
 * the time base and cascade forward).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

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

/**
 * Tick deltas spanning the whole wheel: level-0 slots (same tick and
 * near-future), level-1/2 cascade distances, and the overflow heap
 * horizon beyond 2^24 ticks.
 */
Tick
drawDelta(std::mt19937_64 &rng)
{
    switch (rng() % 4) {
    case 0:
        return rng() % 16; // L0 (incl. same-tick)
    case 1:
        return rng() % (Tick(1) << 12); // L1
    case 2:
        return rng() % (Tick(1) << 20); // L2
    default:
        return rng() % (Tick(1) << 28); // overflow heap
    }
}

/**
 * A wheel and a reference queue driven by one op stream. Every op is
 * applied to both; their firing logs, sequence numbers and observers
 * must stay equal. Members are reschedulable events on the wheel side
 * and tracked seqs on the reference side.
 */
class Lockstep
{
  public:
    explicit Lockstep(int nMembers) : refSeq(nMembers, none)
    {
        for (int i = 0; i < nMembers; ++i) {
            members.push_back(std::make_unique<ScriptedEvent>(
                wheel, wheelLog, memberId(i)));
        }
    }

    ~Lockstep()
    {
        for (auto &m : members)
            if (m->scheduled())
                wheel.deschedule(m.get());
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
        const std::uint64_t kind = rng() % 8;
        const std::size_t m = rng() % members.size();
        const Tick delta = drawDelta(rng);
        const bool reuse = rng() % 4 == 0;
        Tick when = wheel.now() + delta;
        if (reuse) {
            const Tick t = recent[rng() % recent.size()];
            if (t >= wheel.now())
                when = t;
        }
        switch (kind) {
        case 0:
        case 1: { // one-shot, sometimes chaining a second from inside
            const bool chain = rng() % 4 == 0;
            oneShot(++nextOneShot, when, chain, drawDelta(rng));
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
        EXPECT_EQ(a, b) << "events fired by runUntil(" << limit << ")";
    }

    /** Drain both queues, chains included (a chain adds <= 2^28). */
    void
    drain()
    {
        while (!wheel.empty() || !ref.empty())
            runUntil(wheel.now() + (Tick(1) << 29));
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
    }

    EventQueue wheel;
    simtest::ReferenceQueue ref;
    std::vector<Firing> wheelLog;
    std::vector<Firing> refLog;

  private:
    static constexpr std::uint64_t none = ~std::uint64_t(0);

    static int memberId(std::size_t i) { return 1000 + int(i); }

    void
    remember(Tick when)
    {
        recent[nextRecent++ % recent.size()] = when;
    }

    void
    oneShot(int id, Tick when, bool chain, Tick chainDelta)
    {
        remember(when);
        const std::uint64_t a = wheel.schedule(
            when, [this, id, chain, chainDelta] {
                wheelLog.push_back({wheel.now(), id});
                if (chain) {
                    wheel.schedule(wheel.now() + chainDelta, [this, id] {
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
        EXPECT_EQ(a, b) << "one-shot " << id << " seq";
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

    std::vector<std::unique_ptr<ScriptedEvent>> members;
    std::vector<std::uint64_t> refSeq;
    std::array<Tick, 8> recent{};
    std::size_t nextRecent = 0;
    int nextOneShot = 0;
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

/**
 * Restore-style rebuild under the wheel: fire half a schedule, move
 * the survivors into a fresh queue in original sequence order (what
 * ckpt's deferred replay does), force the time base, and check the
 * continuation fires exactly like the uninterrupted run. Covers the
 * wheel-specific restore path: entries placed against wheelBase 0,
 * then the first advance cascading the base up to the restored tick.
 */
TEST(SchedulerDifferential, RebuiltWheelContinuesIdentically)
{
    struct Planned
    {
        Tick when;
        int id;
    };
    std::vector<Planned> plan;
    std::mt19937_64 rng(11);
    for (int i = 0; i < 200; ++i)
        plan.push_back({drawDelta(rng) + 1, i});

    const Tick cut = Tick(1) << 16;
    const Tick end = Tick(1) << 29;

    // Uninterrupted reference run.
    std::vector<Firing> ref;
    {
        EventQueue q;
        for (const Planned &p : plan) {
            q.schedule(p.when, [&q, &ref, id = p.id] {
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
        for (const Planned &p : plan) {
            q.schedule(p.when, [&q, &firstHalf, id = p.id] {
                firstHalf.push_back({q.now(), id});
            });
        }
        q.runUntil(cut);
    }

    std::vector<Firing> secondHalf;
    {
        EventQueue q;
        // Replay survivors in original (ascending seq == plan) order,
        // then force the time base past them, as ckpt::restore does.
        for (const Planned &p : plan) {
            if (p.when <= cut)
                continue;
            q.schedule(p.when, [&q, &secondHalf, id = p.id] {
                secondHalf.push_back({q.now(), id});
            });
        }
        sim::EventQueueRestoreAccess::setCurTick(q, cut);
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
 * With near events wheel-resident, lazy squash + compaction only runs
 * for far-future (overflow-heap) deschedules; pin that path directly.
 */
TEST(SchedulerDifferential, FarFutureCompactionPreservesOrder)
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
    const Tick far = Tick(1) << 26; // beyond the 2^24 wheel horizon
    std::vector<Tick> fired;
    std::vector<TickEvent> evs(64, TickEvent(q, fired));
    for (std::size_t i = 0; i < evs.size(); ++i)
        q.schedule(&evs[i], far + Tick(i));
    ASSERT_EQ(sim::EventQueueTestAccess::heapSlots(q), 64u);
    ASSERT_EQ(sim::EventQueueTestAccess::wheelEntries(q), 0u);

    // Squash most of the heap; compaction keeps slots < live*2.
    for (std::size_t i = 0; i < evs.size(); ++i) {
        if (i % 4 != 0)
            q.deschedule(&evs[i]);
    }
    EXPECT_EQ(q.pending(), 16u);
    EXPECT_LT(sim::EventQueueTestAccess::heapSlots(q), 32u);
    EXPECT_TRUE(q.selfCheckConsistent());

    // Survivors still fire in schedule order as they cascade into the
    // wheel and drain.
    q.runUntil(far + 64);
    ASSERT_EQ(fired.size(), 16u);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], far + Tick(4 * i));
}

} // namespace
