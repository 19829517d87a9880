/**
 * @file
 * Core timing model tests.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "sim/simulation.hh"

#include "../sim/callback_event.hh"

namespace
{

cache::HierarchyConfig
smallConfig()
{
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.l1 = {512, 2, 2};
    cfg.mlc = {2048, 4, 12};
    cfg.llcPerCore = {4096, 4, 24};
    return cfg;
}

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest()
        : hier(s, "sys", smallConfig()), core0(s, "core0", 0, hier)
    {
    }

    sim::Simulation s;
    cache::MemoryHierarchy hier;
    cpu::Core core0;
};

TEST_F(CoreTest, ReadSpansLines)
{
    // 1514 bytes from an aligned base touch 24 lines.
    core0.read(0x10000, 1514);
    EXPECT_EQ(core0.reads.get(), 24u);
    // Unaligned 8-byte read crossing a boundary touches 2 lines.
    core0.read(0x2003C, 8);
    EXPECT_EQ(core0.reads.get(), 26u);
}

TEST_F(CoreTest, WriteSpansLines)
{
    core0.write(0x10000, 128);
    EXPECT_EQ(core0.writes.get(), 2u);
}

TEST_F(CoreTest, DefaultByteCountIsOneLine)
{
    core0.read(0x10000);
    EXPECT_EQ(core0.reads.get(), 1u);
}

TEST_F(CoreTest, LatencyAccumulatesOverLines)
{
    const auto one = core0.read(0x10000, 1);
    const auto many = core0.read(0x20000, 10 * 64);
    EXPECT_GT(many, one);
}

TEST_F(CoreTest, HitLevelCountersTrack)
{
    core0.read(0x10000, 1); // DRAM fill
    core0.read(0x10000, 1); // L1 hit
    EXPECT_EQ(core0.hitsDram.get(), 1u);
    EXPECT_EQ(core0.hitsL1.get(), 1u);
}

TEST_F(CoreTest, InvalidateChargesPerLine)
{
    core0.write(0x10000, 1514);
    const auto lat = core0.invalidate(0x10000, 1514);
    EXPECT_EQ(core0.invalidations.get(), 24u);
    EXPECT_EQ(lat, 24 * hier.config().cyclesToTicks(1));
    EXPECT_FALSE(hier.mlcOf(0).contains(0x10000));
}

TEST_F(CoreTest, WorkloadStepsAtReturnedDelays)
{
    class FixedDelay : public cpu::Workload
    {
      public:
        sim::Tick
        step(cpu::Core &) override
        {
            ++stepsRun;
            return 100;
        }
        std::string label() const override { return "fixed"; }
        int stepsRun = 0;
    };

    FixedDelay wl;
    core0.run(wl);
    s.runFor(1000);
    // Steps at t = 0, 100, ..., 1000 inclusive.
    EXPECT_EQ(wl.stepsRun, 11);
    EXPECT_EQ(core0.steps.get(), 11u);
}

TEST_F(CoreTest, HaltStopsStepping)
{
    class FixedDelay : public cpu::Workload
    {
      public:
        sim::Tick
        step(cpu::Core &) override
        {
            ++stepsRun;
            return 100;
        }
        std::string label() const override { return "fixed"; }
        int stepsRun = 0;
    };

    FixedDelay wl;
    core0.run(wl);
    s.runFor(550);
    core0.halt();
    s.runFor(1000);
    // Steps at t = 0, 100, ..., 500 before the halt.
    EXPECT_EQ(wl.stepsRun, 6);
}

TEST_F(CoreTest, VariableDelaysRespected)
{
    class Doubling : public cpu::Workload
    {
      public:
        sim::Tick
        step(cpu::Core &) override
        {
            when.push_back(now);
            delay *= 2;
            now += delay;
            return delay;
        }
        std::string label() const override { return "doubling"; }
        sim::Tick delay = 50;
        sim::Tick now = 0;
        std::vector<sim::Tick> when;
    };

    Doubling wl;
    core0.run(wl);
    s.runFor(10000);
    // Steps at 0, 100, 300, 700, 1500, 3100, 6300 -> 7 steps by 10 us.
    EXPECT_EQ(wl.when.size(), 7u);
}

TEST_F(CoreTest, ZeroByteAccessesTouchNothing)
{
    core0.read(0x10040, 1); // cache one line
    const auto readsBefore = core0.reads.get();

    // Unaligned and at address 0: an empty range is no lines at all.
    EXPECT_EQ(core0.read(0x10045, 0), 0u);
    EXPECT_EQ(core0.write(0x10045, 0), 0u);
    EXPECT_EQ(core0.read(0, 0), 0u);
    EXPECT_EQ(core0.write(0, 0), 0u);
    EXPECT_EQ(core0.reads.get(), readsBefore);
    EXPECT_EQ(core0.writes.get(), 0u);

    EXPECT_EQ(core0.invalidate(0x10045, 0), 0u);
    EXPECT_EQ(core0.invalidate(0, 0), 0u);
    EXPECT_EQ(core0.invalidations.get(), 0u);
    EXPECT_TRUE(hier.mlcOf(0).contains(0x10040));
    EXPECT_TRUE(hier.l1(0).contains(0x10040));
}

/**
 * Reads one line per step and offers every step as idle, the way an
 * empty PMD poll does.
 */
class IdlePoll : public cpu::Workload
{
  public:
    explicit IdlePoll(sim::Addr line) : line(line) {}

    sim::Tick
    step(cpu::Core &c) override
    {
        ++stepsRun;
        c.read(line, 1);
        c.offerIdle();
        return 100;
    }
    std::string label() const override { return "idle"; }
    void creditIdleSteps(std::uint64_t n) override { credited += n; }

    sim::Addr line;
    std::uint64_t stepsRun = 0;
    std::uint64_t credited = 0;
};

struct IdleRun
{
    std::uint64_t steps, reads, hitsL1, hitsMlc, busy, l1Hits, l1Misses;
    std::uint64_t workloadSteps, events;

    bool operator==(const IdleRun &) const = default;
};

/** Idle-poll 0x40 on core 0; a DMA write lands on it at 1234. */
IdleRun
runIdle(bool sleeping)
{
    sim::Simulation s;
    if (!sleeping)
        sim::EventQueueTestAccess::forbidSleep(s.eventq());
    cache::MemoryHierarchy hier(s, "sys", smallConfig());
    cpu::Core core(s, "core", 0, hier);
    IdlePoll wl(0x40);
    core.run(wl);
    bool sleptBeforeDma = false;
    simtest::Callbacks cb(s.eventq());
    cb.at(1234, [&] {
        sleptBeforeDma = core.sleeping();
        hier.pcieWrite(0x40); // drops the polled line: wakes the core
        EXPECT_FALSE(core.sleeping());
    });
    s.runFor(2000);
    s.runFor(1550);
    EXPECT_EQ(sleptBeforeDma, sleeping);
    return {core.steps.get(),
            core.reads.get(),
            core.hitsL1.get(),
            core.hitsMlc.get(),
            core.busyTicks.get(),
            hier.l1(0).hits.get(),
            hier.l1(0).misses.get(),
            wl.stepsRun + wl.credited,
            s.eventq().processedEvents()};
}

TEST_F(CoreTest, IdleStepsSleepAndCreditExactly)
{
    const IdleRun ref = runIdle(false);
    IdleRun got = runIdle(true);
    EXPECT_LT(got.events, ref.events);
    got.events = ref.events;
    EXPECT_EQ(got, ref);
    // Steps at 0, 100, ..., 3500; the DMA write makes two misses.
    EXPECT_EQ(ref.steps, 36u);
    EXPECT_EQ(ref.l1Misses, 2u);
}

TEST_F(CoreTest, OnBehalfAccessAndHaltWakeTheCore)
{
    IdlePoll wl(0x40);
    core0.run(wl);
    simtest::Callbacks cb(s.eventq());
    cb.at(555, [&] {
        EXPECT_TRUE(core0.sleeping());
        core0.write(0x80, 1); // e.g. a TX completion's free-list write
        EXPECT_FALSE(core0.sleeping());
        EXPECT_EQ(core0.steps.get(), 6u); // 0 .. 500
    });
    cb.at(777, [&] {
        EXPECT_TRUE(core0.sleeping());
        core0.halt();
        EXPECT_FALSE(core0.sleeping());
        EXPECT_EQ(core0.steps.get(), 8u); // 0 .. 700
    });
    s.runFor(2000);
    EXPECT_EQ(core0.steps.get(), 8u);
    EXPECT_EQ(wl.stepsRun + wl.credited, 8u);
}

TEST_F(CoreTest, TwoCoresShareHierarchy)
{
    cpu::Core core1(s, "core1", 1, hier);
    core0.read(0x30000, 1);
    core1.read(0x30000, 1);
    EXPECT_EQ(hier.coherenceMigrations.get(), 1u);
}

} // anonymous namespace
