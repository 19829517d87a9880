/**
 * @file
 * EventQueue unit tests: ordering, determinism, scheduling semantics.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "callback_event.hh"
#include "sim/event_queue.hh"

namespace
{

using simtest::Callbacks;
using sim::Event;
using sim::EventQueue;
using sim::Tick;

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id) : log(log), id(id) {}
    void process() override { log.push_back(id); }

  private:
    std::vector<int> &log;
    int id;
};

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    Callbacks cb(q);
    std::vector<int> log;
    cb.at(30, [&] { log.push_back(3); });
    cb.at(10, [&] { log.push_back(1); });
    cb.at(20, [&] { log.push_back(2); });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue q;
    Callbacks cb(q);
    std::vector<int> log;
    for (int i = 0; i < 16; ++i)
        cb.at(5, [&log, i] { log.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    Callbacks cb(q);
    int fired = 0;
    cb.at(10, [&] { ++fired; });
    cb.at(20, [&] { ++fired; });
    cb.at(30, [&] { ++fired; });

    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);

    q.runUntil(100);
    EXPECT_EQ(fired, 3);
    // Time advances to the limit even when the queue drains earlier.
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, EventsScheduledDuringProcessingRun)
{
    EventQueue q;
    Callbacks cb(q);
    std::vector<int> log;
    cb.at(10, [&] {
        log.push_back(1);
        cb.at(15, [&] { log.push_back(2); });
    });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ZeroDelaySelfScheduleAdvancesDeterministically)
{
    EventQueue q;
    Callbacks cb(q);
    int count = 0;
    std::function<void()> again = [&] {
        if (++count < 5)
            cb.in(0, again);
    };
    cb.in(1, again);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 1u);
}

TEST(EventQueue, MemberEventScheduleAndFire)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 7);
    EXPECT_FALSE(ev.scheduled());

    q.schedule(&ev, 42);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 42u);

    q.run();
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(log, (std::vector<int>{7}));
}

TEST(EventQueue, DescheduledEventDoesNotFire)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    q.schedule(&ev, 10);
    q.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    q.run();
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, RescheduleAfterDeschedule)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 2);
    q.schedule(&ev, 10);
    q.deschedule(&ev);
    q.schedule(&ev, 20);
    q.run();
    // Fires exactly once, at the second scheduling.
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, MemberEventCanRescheduleItself)
{
    EventQueue q;

    class Repeater : public Event
    {
      public:
        Repeater(EventQueue &q, int limit) : q(q), limit(limit) {}
        void
        process() override
        {
            if (++fires < limit)
                q.scheduleIn(this, 10);
        }
        int fires = 0;

      private:
        EventQueue &q;
        int limit;
    };

    Repeater r(q, 4);
    q.schedule(&r, 10);
    q.run();
    EXPECT_EQ(r.fires, 4);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, PendingCountTracksSquashedEntries)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    EXPECT_EQ(q.pending(), 2u);
    q.deschedule(&a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, ProcessedEventsCounter)
{
    EventQueue q;
    Callbacks cb(q);
    for (int i = 0; i < 10; ++i)
        cb.at(i, [] {});
    q.run();
    EXPECT_EQ(q.processedEvents(), 10u);
}

TEST(EventQueue, DescheduleChurnPreservesPendingAndOrder)
{
    EventQueue q;
    std::vector<int> log;
    std::vector<RecordingEvent> evs;
    evs.reserve(32);
    for (int i = 0; i < 32; ++i)
        evs.emplace_back(log, i);
    for (int i = 0; i < 32; ++i)
        q.schedule(&evs[i], Tick(10 + i));

    // Deschedule three quarters: each erases its entry exactly, so
    // only the survivors stay resident.
    for (int i = 0; i < 32; i += 2)
        q.deschedule(&evs[i]);
    for (int i = 1; i < 32; i += 4)
        q.deschedule(&evs[i]);

    EXPECT_EQ(q.pending(), 8u);
    EXPECT_EQ(sim::EventQueueTestAccess::wheelEntries(q), 8u);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{3, 7, 11, 15, 19, 23, 27, 31}));
}

TEST(EventQueue, PeekNextTickMatchesNextEventTick)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    EXPECT_EQ(q.peekNextTick(), sim::maxTick);
    EXPECT_EQ(q.nextEventTick(), sim::maxTick);

    q.schedule(&a, 30);
    q.schedule(&b, 20);
    EXPECT_EQ(q.peekNextTick(), 20u);
    EXPECT_EQ(q.peekNextTick(), q.nextEventTick());
    q.run();
}

TEST(EventQueue, PeekNextTickSkipsSquashedTop)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 40);
    q.deschedule(&a);

    // The descheduled earliest entry must be transparent: peek
    // reports the live minimum without changing pending().
    EXPECT_EQ(q.peekNextTick(), 40u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    q.schedule(&ev, 100);
    q.run();
    EXPECT_DEATH(q.schedule(&ev, 50), "past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    q.schedule(&ev, 10);
    EXPECT_DEATH(q.schedule(&ev, 20), "twice");
    q.deschedule(&ev);
}

TEST(EventQueueDeath, TickThatFiresNothingPanics)
{
    // Moving the time base under a pending entry leaves it in a slot
    // advanceTo() never cascades: the entry at 300 stays in level 1,
    // computeMin() still reports 300, and its level-0 slot is empty.
    // The run loop must stop there, not pick tick 300 forever.
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    q.schedule(&ev, 300);
    sim::EventQueueTestAccess::setCurTick(q, 256);
    EXPECT_DEATH(q.runUntil(1000), "fired nothing");
    sim::EventQueueTestAccess::setCurTick(q, 0); // where it was placed
    q.deschedule(&ev);
}

} // anonymous namespace
