/**
 * @file
 * TimelineRecorder tests.
 */

#include <gtest/gtest.h>

#include "harness/timeline.hh"

namespace
{

TEST(Timeline, RateSeriesInMtps)
{
    sim::Simulation s;
    harness::TimelineRecorder rec(s, 10 * sim::oneUs);

    std::uint64_t counter = 0;
    rec.trackRate("events", [&] { return counter; });
    rec.start();

    // 100 events per 10 us interval = 10 MTPS.
    sim::PeriodicEvent pump(s.eventq(), sim::oneUs,
                            [&] { counter += 10; });
    pump.start();

    s.runFor(100 * sim::oneUs);
    const auto &series = rec.series("events");
    ASSERT_GE(series.size(), 9u);
    // Skip the first sample (partial interval alignment) and check
    // the steady-state rate.
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_NEAR(series.points()[i].value, 10.0, 0.01);
}

TEST(Timeline, AllReturnsRegistrationOrder)
{
    sim::Simulation s;
    harness::TimelineRecorder rec(s);
    rec.trackRate("a", [] { return 0ull; });
    rec.trackRate("b", [] { return 0ull; });
    const auto all = rec.all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0]->name(), "a");
    EXPECT_EQ(all[1]->name(), "b");
}

TEST(TimelineDeath, UnknownSeriesIsFatal)
{
    sim::Simulation s;
    harness::TimelineRecorder rec(s);
    EXPECT_EXIT(rec.series("missing"), ::testing::ExitedWithCode(1),
                "unknown timeline");
}

} // anonymous namespace
