/**
 * @file
 * IAT-style DDIO way tuner tests.
 */

#include <gtest/gtest.h>

#include "idio/way_tuner.hh"
#include "sim/simulation.hh"

namespace
{

/**
 * A tiny LLC (2 cores x 8 KB, 8 ways: 32 sets) whose 2-way DDIO
 * partition holds 64 lines, so the tuner's thresholds (grow above 64
 * DDIO-way victims per interval; shrink below 8 with more than 256
 * LLC misses) can be hit exactly.
 */
class WayTunerTest : public ::testing::Test
{
  protected:
    WayTunerTest()
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 2;
        hcfg.llcPerCore = {8192, 8, 24};
        hcfg.ddioWays = 2;
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        tuner = std::make_unique<idio::DdioWayTuner>(s, "tuner", *hier);
        tuner->start();
    }

    /** DMA-write @p n new lines (each allocates into the DDIO ways). */
    void
    dmaLines(int n)
    {
        for (int i = 0; i < n; ++i, dmaAddr += 64)
            hier->pcieWrite(dmaAddr);
    }

    /** Core-read @p n new lines: one LLC miss each, no DDIO victim. */
    void
    cpuMisses(int n)
    {
        for (int i = 0; i < n; ++i, cpuAddr += 64)
            hier->coreRead(0, cpuAddr);
    }

    /** Run to the end of the current tuning interval. */
    void endInterval() { s.runFor(idio::DdioWayTuner::interval); }

    std::uint32_t ways() const { return hier->llc().ddioWays(); }

    sim::Simulation s;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::DdioWayTuner> tuner;
    sim::Addr dmaAddr = 0;
    sim::Addr cpuAddr = 0x4000000;
};

TEST_F(WayTunerTest, GrowsUnderDmaLeak)
{
    ASSERT_EQ(ways(), 2u);
    // Fill the partition (no victim yet), then displace exactly
    // growLeakThreshold lines: not more than it, so no growth.
    dmaLines(64);
    EXPECT_EQ(hier->llc().ddioWayEvictions.get(), 0u);
    dmaLines(int(idio::DdioWayTuner::growLeakThreshold));
    endInterval();
    EXPECT_EQ(tuner->evaluations.get(), 1u);
    EXPECT_EQ(ways(), 2u);

    // One victim more than the threshold grows the partition.
    dmaLines(int(idio::DdioWayTuner::growLeakThreshold) + 1);
    endInterval();
    EXPECT_EQ(ways(), 3u);
    EXPECT_EQ(tuner->grows.get(), 1u);
}

TEST_F(WayTunerTest, ShrinksUnderCpuPressureWithoutLeak)
{
    // No DMA leak; exactly missThreshold misses do not shrink.
    cpuMisses(int(idio::DdioWayTuner::missThreshold));
    endInterval();
    EXPECT_EQ(ways(), 2u);

    // One miss more does.
    cpuMisses(int(idio::DdioWayTuner::missThreshold) + 1);
    endInterval();
    EXPECT_EQ(ways(), 1u);
    EXPECT_EQ(tuner->shrinks.get(), 1u);
}

TEST_F(WayTunerTest, LeakAtShrinkThresholdBlocksShrink)
{
    // A leak of shrinkLeakThreshold (8) victims is not "quiet".
    dmaLines(64 + int(idio::DdioWayTuner::shrinkLeakThreshold));
    cpuMisses(1000);
    endInterval();
    EXPECT_EQ(ways(), 2u);
    EXPECT_EQ(tuner->shrinks.get(), 0u);
}

TEST_F(WayTunerTest, RespectsBounds)
{
    // Heavy leak for many intervals saturates at maxWays (8).
    for (int interval = 0; interval < 30; ++interval) {
        dmaLines(2000);
        endInterval();
    }
    EXPECT_EQ(ways(), idio::DdioWayTuner::maxWays);
    EXPECT_EQ(tuner->grows.get(), 6u);

    // Sustained CPU pressure without leak drains to minWays (1).
    for (int interval = 0; interval < 30; ++interval) {
        cpuMisses(500);
        endInterval();
    }
    EXPECT_EQ(ways(), idio::DdioWayTuner::minWays);
    EXPECT_EQ(tuner->shrinks.get(), 7u);
}

TEST_F(WayTunerTest, IdleDoesNothing)
{
    s.runFor(sim::oneMs);
    EXPECT_EQ(ways(), 2u);
    EXPECT_EQ(tuner->grows.get(), 0u);
    EXPECT_EQ(tuner->shrinks.get(), 0u);
    // One evaluation per 10 us interval.
    EXPECT_EQ(tuner->evaluations.get(), 100u);
}

TEST(LlcRepartition, DynamicWaysAffectFutureAllocations)
{
    sim::Simulation s;
    cache::HierarchyConfig hcfg;
    hcfg.numCores = 1;
    cache::MemoryHierarchy hier(s, "sys", hcfg);

    hier.llc().setDdioWays(4);
    EXPECT_EQ(hier.llc().ddioWays(), 4u);
    hier.pcieWrite(0x1000);
    auto ref = hier.llc().probe(0x1000);
    ASSERT_TRUE(ref);
    EXPECT_LT(ref.way, 4u);
}

TEST(LlcRepartitionDeath, OutOfRangeIsFatal)
{
    sim::Simulation s;
    cache::HierarchyConfig hcfg;
    hcfg.numCores = 1;
    cache::MemoryHierarchy hier(s, "sys", hcfg);
    EXPECT_EXIT(hier.llc().setDdioWays(0),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(hier.llc().setDdioWays(13),
                ::testing::ExitedWithCode(1), "out of range");
}

} // anonymous namespace
