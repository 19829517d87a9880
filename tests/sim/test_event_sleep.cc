/**
 * @file
 * Sleeping events: a periodic event that sleeps between wakes must be
 * indistinguishable from one dispatched every period.
 *
 * Pollers reschedule themselves every period and count their
 * dispatches. Actors are one-shots that fire at random ticks (many on
 * the pollers' grids, many sharing a tick), observe every poller's
 * count, wake pollers at random and schedule more actors. The same
 * seeded scenario runs once with sleeping forbidden (the reference)
 * and once with pollers sleeping after every dispatch; the actors'
 * observation logs must be identical.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using sim::EventQueue;
using sim::Tick;

class Poller : public sim::Event, private sim::Sleeper
{
  public:
    Poller(EventQueue &q, Tick period) : q(q), period(period) {}

    ~Poller() override
    {
        if (scheduled())
            q.deschedule(this);
    }

    void
    process() override
    {
        ++count;
        if (q.sleep(this, q.now() + period, period, this))
            asleep = true;
        else
            q.schedule(this, q.now() + period);
    }

    void
    wake()
    {
        if (asleep)
            q.wake(this);
    }

    std::uint64_t count = 0;
    bool asleep = false;

  private:
    void sleptThrough(std::uint64_t n) override { count += n; }
    void awoke() override { asleep = false; }

    EventQueue &q;
    Tick period;
};

struct Observation
{
    Tick when;
    int actor;
    std::vector<std::uint64_t> counts;

    bool operator==(const Observation &) const = default;
};

struct Outcome
{
    std::vector<Observation> log;
    std::uint64_t processed = 0;
};

Outcome
runScenario(std::uint64_t seed, bool sleeping)
{
    EventQueue q;
    if (!sleeping)
        sim::EventQueueTestAccess::forbidSleep(q);

    // Two same-period grids with distinct phases, one of another
    // period, and one sharing the first grid (refused while the first
    // sleeps, so it keeps dispatching).
    std::vector<std::unique_ptr<Poller>> pollers;
    const Tick periods[] = {10, 10, 15, 10};
    const Tick starts[] = {0, 3, 7, 20};
    for (int i = 0; i < 4; ++i) {
        pollers.push_back(std::make_unique<Poller>(q, periods[i]));
        q.schedule(pollers.back().get(), starts[i]);
    }

    Outcome out;
    sim::Rng rng(seed);
    int nextActor = 0;
    const int maxActors = 600;

    // Actors are std::function so they can schedule themselves.
    std::function<void(int)> act;
    auto spawn = [&](Tick when) {
        if (nextActor >= maxActors)
            return;
        const int id = nextActor++;
        q.schedule(when, [&act, id] { act(id); });
    };
    act = [&](int id) {
        // Observe (syncing the sleepers first, else an observation
        // would be stale), wake a poller before or after scheduling
        // children, or do nothing observable at all.
        const bool observe = rng.chance(0.5);
        if (observe) {
            q.syncSleepers();
            Observation o{q.now(), id, {}};
            for (const auto &p : pollers)
                o.counts.push_back(p->count);
            out.log.push_back(std::move(o));
        }
        const bool wake = rng.chance(0.4);
        const bool wakeFirst = rng.chance(0.5);
        Poller &target = *pollers[rng.below(pollers.size())];
        if (wake && wakeFirst)
            target.wake();
        const std::uint64_t kids = rng.below(3);
        for (std::uint64_t k = 0; k < kids; ++k) {
            // Same tick, on a grid, or anywhere nearby.
            Tick delay;
            switch (rng.below(4)) {
              case 0:
                delay = 0;
                break;
              case 1:
                delay = 10 * (1 + rng.below(4));
                break;
              case 2:
                delay = 15 * (1 + rng.below(3)) + rng.below(2) * 7;
                break;
              default:
                delay = rng.below(60);
                break;
            }
            spawn(q.now() + delay);
        }
        if (wake && !wakeFirst)
            target.wake();
    };
    for (int i = 0; i < 12; ++i)
        spawn(rng.below(200));

    // Uneven slices: every return wakes the sleepers.
    const Tick end = 3000;
    for (Tick t = 0; t < end; t += 1 + rng.below(97))
        q.runUntil(t);
    q.runUntil(end);
    Observation last{q.now(), -1, {}};
    for (const auto &p : pollers)
        last.counts.push_back(p->count);
    out.log.push_back(std::move(last));
    out.processed = q.processedEvents();
    EXPECT_TRUE(q.selfCheckConsistent());
    return out;
}

TEST(EventSleep, MatchesDispatchingEveryRepeat)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Outcome ref = runScenario(seed, false);
        const Outcome got = runScenario(seed, true);
        ASSERT_EQ(got.log.size(), ref.log.size()) << "seed " << seed;
        for (std::size_t i = 0; i < ref.log.size(); ++i) {
            ASSERT_EQ(got.log[i], ref.log[i])
                << "seed " << seed << " observation " << i
                << " at tick " << ref.log[i].when;
        }
        EXPECT_LT(got.processed, ref.processed)
            << "nothing slept, seed " << seed;
    }
}

TEST(EventSleep, SharedGridIsRefused)
{
    EventQueue q;
    Poller a(q, 10);
    Poller b(q, 10);
    Poller c(q, 15);
    q.schedule(&a, 0);
    q.schedule(&b, 0); // same phase as a
    q.schedule(&c, 5); // 5 apart, gcd(10, 15) = 5: grids meet
    q.schedule(6, [&] {
        EXPECT_TRUE(a.asleep || b.asleep);
        EXPECT_FALSE(a.asleep && b.asleep);
        EXPECT_FALSE(c.asleep);
        EXPECT_EQ(q.sleeping(), 1u);
    });
    q.runUntil(100); // the return wakes everyone
    EXPECT_EQ(q.sleeping(), 0u);
    EXPECT_EQ(a.count, 11u);
    EXPECT_EQ(b.count, 11u);
    EXPECT_EQ(c.count, 7u);
}

TEST(EventSleep, WakeRestoresTheExactRepeat)
{
    // A sleeper woken mid-run reappears on its grid: the next dispatch
    // is a real one at the tick the skipped repeat would have had.
    EventQueue q;
    Poller a(q, 10);
    q.schedule(&a, 5);
    Tick seenAt = 0;
    std::uint64_t seenCount = 0;
    q.schedule(42, [&] {
        a.wake();
        EXPECT_FALSE(a.asleep);
        EXPECT_TRUE(a.scheduled());
        seenAt = a.when();
        seenCount = a.count;
    });
    q.runUntil(44);
    EXPECT_EQ(seenAt, 45u);
    EXPECT_EQ(seenCount, 4u); // 5, 15, 25, 35
    EXPECT_EQ(a.count, 4u);
}

TEST(EventSleep, WokenRepeatJoinsTheActiveDrainBatch)
{
    // Tick 20 holds E (scheduled before the poller first ran) and F
    // (scheduled at 15, after the skipped repeat at 10), so the repeat
    // at 20 sorts between them. E wakes the poller mid-drain: the
    // recovered repeat must fire before F, not after the batch.
    EventQueue q;
    Poller p(q, 10);
    q.schedule(&p, 0);
    std::uint64_t seenByF = 0;
    q.schedule(20, [&] {
        EXPECT_TRUE(p.asleep);
        p.wake();
    });
    q.schedule(15, [&] {
        q.schedule(20, [&] { seenByF = p.count; });
    });
    q.runUntil(25);
    EXPECT_EQ(seenByF, 3u);
    EXPECT_EQ(p.count, 3u);
}

} // anonymous namespace
