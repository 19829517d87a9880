/**
 * @file
 * NonInclusiveLlc structural tests (flow behaviour is exercised via
 * MemoryHierarchy in the other cache test files).
 */

#include <gtest/gtest.h>

#include "cache/llc.hh"
#include "sim/simulation.hh"

namespace
{

class LlcTest : public ::testing::Test
{
  protected:
    sim::Simulation s;
    // 3 MB, 12-way, 2 DDIO ways: the paper's 2-core Fig. 5 setup.
    cache::NonInclusiveLlc llc{s, "llc", 3 * 1024 * 1024, 12, 2,
                               cache::ReplKind::Lru};
};

TEST_F(LlcTest, DdioMask)
{
    EXPECT_EQ(llc.ddioWays(), 2u);
    EXPECT_EQ(llc.ddioMask(), 0b11u);
    EXPECT_TRUE(llc.isDdioWay(0));
    EXPECT_TRUE(llc.isDdioWay(1));
    EXPECT_FALSE(llc.isDdioWay(2));
    EXPECT_FALSE(llc.isDdioWay(11));
}

TEST_F(LlcTest, Geometry)
{
    EXPECT_EQ(llc.tags().assoc(), 12u);
    EXPECT_EQ(llc.tags().numSets(), 4096u);
}

TEST_F(LlcTest, OccupancyCounters)
{
    EXPECT_EQ(llc.occupancy(), 0u);

    // One I/O line in a DDIO way.
    auto s1 = llc.tags().findFillSlot(0x0, llc.ddioMask());
    llc.tags().fill(s1, 0x0, true, true);
    // One I/O line outside the DDIO ways (bloated).
    auto s2 = llc.tags().findFillSlot(0x40, ~cache::WayMask(0) << 2);
    llc.tags().fill(s2, 0x40, true, true);
    // One CPU line outside the DDIO ways.
    auto s3 = llc.tags().findFillSlot(0x80, ~cache::WayMask(0) << 2);
    llc.tags().fill(s3, 0x80, false, false);

    EXPECT_EQ(llc.occupancy(), 3u);
    EXPECT_EQ(llc.ddioOccupancy(), 1u);
    EXPECT_EQ(llc.bloatedIoOccupancy(), 1u);
}

TEST_F(LlcTest, ProbeAndContains)
{
    EXPECT_FALSE(llc.contains(0x1000));
    auto slot = llc.tags().findFillSlot(0x1000);
    llc.tags().fill(slot, 0x1000, false, false);
    EXPECT_TRUE(llc.contains(0x1000));
    EXPECT_TRUE(llc.probe(0x1000));
}

TEST(LlcDeath, TooManyDdioWaysIsFatal)
{
    sim::Simulation s;
    EXPECT_EXIT(cache::NonInclusiveLlc(s, "llc", 1024 * 1024, 4, 5,
                                       cache::ReplKind::Lru),
                ::testing::ExitedWithCode(1), "ddioWays");
}

} // anonymous namespace
