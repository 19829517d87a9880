/**
 * @file
 * PeriodicEvent tests.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/periodic.hh"

namespace
{

TEST(PeriodicEvent, FiresEveryPeriod)
{
    sim::EventQueue q;
    int fires = 0;
    sim::PeriodicEvent ev(q, 100, [&] { ++fires; });
    ev.start();
    q.runUntil(1000);
    EXPECT_EQ(fires, 10);
}

TEST(PeriodicEvent, StopHaltsFiring)
{
    sim::EventQueue q;
    int fires = 0;
    sim::PeriodicEvent ev(q, 10, [&] { ++fires; });
    ev.start();
    q.runUntil(55);
    EXPECT_EQ(fires, 5);
    ev.stop();
    q.runUntil(1000);
    EXPECT_EQ(fires, 5);
}

TEST(PeriodicEvent, RestartAfterStop)
{
    sim::EventQueue q;
    int fires = 0;
    sim::PeriodicEvent ev(q, 10, [&] { ++fires; });
    ev.start();
    q.runUntil(30);
    ev.stop();
    ev.start();
    q.runUntil(60);
    EXPECT_EQ(fires, 6);
}

TEST(PeriodicEvent, DestructionWhileScheduledIsSafe)
{
    sim::EventQueue q;
    {
        sim::PeriodicEvent ev(q, 10, [] {});
        ev.start();
        q.runUntil(25);
    } // must not panic
    q.runUntil(100);
    SUCCEED();
}

TEST(PeriodicEvent, CallbackSeesMonotonicTime)
{
    sim::EventQueue q;
    sim::Tick last = 0;
    bool monotonic = true;
    sim::PeriodicEvent ev(q, 7, [&] {
        if (q.now() <= last)
            monotonic = false;
        last = q.now();
    });
    ev.start();
    q.runUntil(700);
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(last, 700u);
}

} // anonymous namespace
