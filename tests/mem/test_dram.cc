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

/** Table I's DDR4: 60 ns device latency, 60 GB/s peak bandwidth. */
constexpr sim::Tick latency = sim::nsToTicks(60.0);

/** Channel occupancy of one 64 B line at 60 GB/s: 1.0667 ns. */
constexpr sim::Tick slot = sim::nsToTicks(64.0 / 60.0);
static_assert(slot == 1067);

TEST(Dram, CountsReadsAndWrites)
{
    sim::Simulation s;
    mem::DramModel dram(s, "dram");

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
    mem::DramModel dram(s, "dram");

    const sim::Tick lat = dram.access(mem::AccessType::Read);
    EXPECT_EQ(lat, latency);
}

TEST(Dram, BackToBackAccessesQueue)
{
    sim::Simulation s;
    mem::DramModel dram(s, "dram");

    // All at tick 0: the n-th access waits n service slots.
    const sim::Tick l0 = dram.access(mem::AccessType::Read);
    const sim::Tick l1 = dram.access(mem::AccessType::Read);
    const sim::Tick l2 = dram.access(mem::AccessType::Read);

    EXPECT_EQ(l0, latency);
    EXPECT_EQ(l1, latency + slot);
    EXPECT_EQ(l2, latency + 2 * slot);
}

TEST(Dram, QueueDrainsWithTime)
{
    sim::Simulation s;
    mem::DramModel dram(s, "dram");

    dram.access(mem::AccessType::Write);
    dram.access(mem::AccessType::Write);
    // Advance simulated time beyond the two-slot busy period.
    simtest::Callbacks cb(s.eventq());
    cb.at(sim::nsToTicks(100.0), [] {});
    s.runUntil(sim::nsToTicks(100.0));

    const sim::Tick lat = dram.access(mem::AccessType::Write);
    EXPECT_EQ(lat, latency);
}

TEST(Dram, SustainedRateMatchesBandwidth)
{
    sim::Simulation s;
    mem::DramModel dram(s, "dram");

    // Issue 1000 accesses at tick 0; the last waits 999 slots: the
    // channel moves 999 lines in ~1.07 us, 60 GB/s.
    sim::Tick last = 0;
    for (int i = 0; i < 1000; ++i)
        last = dram.access(mem::AccessType::Read);
    EXPECT_EQ(last, latency + 999 * slot);
}

} // anonymous namespace
