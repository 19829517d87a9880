/**
 * @file
 * DRAM model tests: latency, bandwidth queueing, accounting.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/simulation.hh"

#include "../sim/callback_event.hh"

namespace
{

TEST(Dram, CountsReadsAndWrites)
{
    sim::Simulation s;
    mem::DramConfig cfg;
    mem::DramModel dram(s, "dram", cfg);

    dram.access(mem::AccessType::Read);
    dram.access(mem::AccessType::Read);
    dram.access(mem::AccessType::Write);

    EXPECT_EQ(dram.readCount(), 2u);
    EXPECT_EQ(dram.writeCount(), 1u);
    EXPECT_EQ(dram.readBytes(), 128u);
    EXPECT_EQ(dram.writeBytes(), 64u);
}

TEST(Dram, UncontendedLatencyIsDeviceLatency)
{
    sim::Simulation s;
    mem::DramConfig cfg;
    cfg.accessLatencyNs = 60.0;
    mem::DramModel dram(s, "dram", cfg);

    const sim::Tick lat = dram.access(mem::AccessType::Read);
    EXPECT_EQ(lat, sim::nsToTicks(60.0));
}

TEST(Dram, BackToBackAccessesQueue)
{
    sim::Simulation s;
    mem::DramConfig cfg;
    cfg.accessLatencyNs = 60.0;
    cfg.bandwidthGBps = 64.0; // 1 ns per 64 B line
    mem::DramModel dram(s, "dram", cfg);

    // All at tick 0: the n-th access waits n service slots.
    const sim::Tick l0 = dram.access(mem::AccessType::Read);
    const sim::Tick l1 = dram.access(mem::AccessType::Read);
    const sim::Tick l2 = dram.access(mem::AccessType::Read);

    EXPECT_EQ(l0, sim::nsToTicks(60.0));
    EXPECT_EQ(l1, sim::nsToTicks(61.0));
    EXPECT_EQ(l2, sim::nsToTicks(62.0));
}

TEST(Dram, QueueDrainsWithTime)
{
    sim::Simulation s;
    mem::DramConfig cfg;
    cfg.accessLatencyNs = 10.0;
    cfg.bandwidthGBps = 6.4; // 10 ns per line
    mem::DramModel dram(s, "dram", cfg);

    dram.access(mem::AccessType::Write);
    // Advance simulated time beyond the busy period.
    simtest::Callbacks cb(s.eventq());
    cb.at(sim::nsToTicks(100.0), [] {});
    s.runUntil(sim::nsToTicks(100.0));

    const sim::Tick lat = dram.access(mem::AccessType::Write);
    EXPECT_EQ(lat, sim::nsToTicks(10.0));
}

TEST(Dram, SustainedRateMatchesBandwidth)
{
    sim::Simulation s;
    mem::DramConfig cfg;
    cfg.accessLatencyNs = 60.0;
    cfg.bandwidthGBps = 64.0; // 1 ns per line
    mem::DramModel dram(s, "dram", cfg);

    // Issue 1000 accesses at tick 0; the last should observe ~999 ns
    // of queueing.
    sim::Tick last = 0;
    for (int i = 0; i < 1000; ++i)
        last = dram.access(mem::AccessType::Read);
    EXPECT_EQ(last, sim::nsToTicks(60.0 + 999.0));
}

} // anonymous namespace
