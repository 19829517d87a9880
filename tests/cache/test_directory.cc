/**
 * @file
 * Excl-MLC directory tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cache/directory.hh"
#include "cache/hierarchy.hh"
#include "hierarchy_fixture.hh"
#include "sim/simulation.hh"

namespace
{

class DirectoryTest : public ::testing::Test
{
  protected:
    sim::Simulation s;
    cache::MlcDirectory dir{s, "dir", 64, 4, cache::ReplKind::Lru};
};

TEST_F(DirectoryTest, UntrackedInitially)
{
    EXPECT_FALSE(dir.isTracked(0x1000));
    EXPECT_EQ(dir.sharersOf(0x1000), 0u);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST_F(DirectoryTest, AddAndRemoveSharer)
{
    auto v = dir.add(2, 0x1000);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(dir.isTracked(0x1000));
    EXPECT_EQ(dir.sharersOf(0x1000), 1ull << 2);

    dir.remove(2, 0x1000);
    EXPECT_FALSE(dir.isTracked(0x1000));
}

TEST_F(DirectoryTest, MultipleSharers)
{
    dir.add(0, 0x40);
    dir.add(3, 0x40);
    EXPECT_EQ(dir.sharersOf(0x40), 0b1001u);
    dir.remove(0, 0x40);
    EXPECT_EQ(dir.sharersOf(0x40), 0b1000u);
    dir.remove(3, 0x40);
    EXPECT_FALSE(dir.isTracked(0x40));
}

TEST_F(DirectoryTest, RemoveAllDropsEntry)
{
    dir.add(0, 0x80);
    dir.add(1, 0x80);
    dir.removeAll(0x80);
    EXPECT_FALSE(dir.isTracked(0x80));
}

TEST_F(DirectoryTest, RemoveUnknownIsNoop)
{
    dir.remove(0, 0xdead00);
    dir.removeAll(0xbeef00);
    SUCCEED();
}

TEST_F(DirectoryTest, RepeatedAddIsIdempotent)
{
    dir.add(1, 0x100);
    dir.add(1, 0x100);
    EXPECT_EQ(dir.sharersOf(0x100), 0b10u);
    EXPECT_EQ(dir.trackedLines(), 1u);
}

TEST_F(DirectoryTest, CapacityEvictionReturnsVictim)
{
    // 64 entries, 4-way: 16 sets. Fill one set (stride = 16 lines).
    const sim::Addr stride = 16 * 64;
    for (int i = 0; i < 4; ++i) {
        auto v = dir.add(0, i * stride);
        EXPECT_FALSE(v.valid);
    }
    auto v = dir.add(1, 4 * stride);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u); // LRU victim
    EXPECT_EQ(v.sharers, 0b1u);
    EXPECT_EQ(dir.capacityEvictions.get(), 1u);
    // Victim is no longer tracked; new entry is.
    EXPECT_FALSE(dir.isTracked(0));
    EXPECT_TRUE(dir.isTracked(4 * stride));
}

TEST_F(DirectoryTest, StatsCount)
{
    dir.add(0, 0x40);
    dir.add(0, 0x80);
    EXPECT_EQ(dir.insertions.get(), 2u);
    EXPECT_GE(dir.lookups.get(), 2u);
}

/** Build a hierarchy whose directory is configured by @p tweak. */
template <typename Fn>
void
buildWith(Fn tweak)
{
    cache::HierarchyConfig cfg = testutil::tinyConfig();
    tweak(cfg);
    sim::Simulation s;
    cache::MemoryHierarchy hier(s, "sys", cfg);
}

TEST(DirectoryDeathTest, AssociativityOutsideOneToSixtyFourIsFatal)
{
    for (std::uint32_t assoc : {0u, 65u}) {
        EXPECT_EXIT(buildWith([&](cache::HierarchyConfig &c) {
                        c.directoryAssoc = assoc;
                    }),
                    ::testing::ExitedWithCode(1), "directoryAssoc")
            << assoc;
    }
}

TEST(DirectoryDeathTest, NonFiniteOrNonPositiveCoverageIsFatal)
{
    for (double cov : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                       -1.5, std::numeric_limits<double>::infinity(),
                       1e300}) {
        EXPECT_EXIT(buildWith([&](cache::HierarchyConfig &c) {
                        c.directoryCoverage = cov;
                    }),
                    ::testing::ExitedWithCode(1), "directoryCoverage")
            << cov;
    }
}

TEST(DirectoryDeathTest, ValidEdgeGeometriesBuild)
{
    buildWith([](cache::HierarchyConfig &c) { c.directoryAssoc = 64; });
    buildWith([](cache::HierarchyConfig &c) {
        c.directoryAssoc = 1;
        c.directoryCoverage = 0.01; // rounds down to one set
    });
    SUCCEED();
}

} // anonymous namespace
