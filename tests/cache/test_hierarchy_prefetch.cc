/**
 * @file
 * MLC prefetch-fill tests (the hierarchy half of IDIO M2).
 */

#include "hierarchy_fixture.hh"

namespace
{

using testutil::HierarchyTest;

TEST_F(HierarchyTest, PrefetchMovesLineFromLlcToMlc)
{
    hier.pcieWrite(0x1000);
    EXPECT_TRUE(hier.mlcPrefetch(0, 0x1000));

    EXPECT_FALSE(hier.llc().contains(0x1000)) << "exclusive move";
    EXPECT_TRUE(hier.mlcOf(0).contains(0x1000));
    EXPECT_EQ(hier.mlcOf(0).prefetchFills.get(), 1u);
    EXPECT_EQ(hier.mlcOf(0).fills.get(), 0u)
        << "prefetches are not demand fills";
    EXPECT_TRUE(hier.directory().isTracked(0x1000));
}

TEST_F(HierarchyTest, PrefetchPreservesDirtyAndIo)
{
    hier.pcieWrite(0x1000);
    hier.mlcPrefetch(0, 0x1000);
    auto ref = hier.mlcOf(0).probe(0x1000);
    ASSERT_TRUE(ref);
    EXPECT_TRUE(ref.dirty());
    EXPECT_TRUE(ref.io());
}

TEST_F(HierarchyTest, PrefetchOfMlcResidentLineIsNoop)
{
    hier.coreRead(0, 0x2000);
    EXPECT_FALSE(hier.mlcPrefetch(0, 0x2000));
    EXPECT_EQ(hier.mlcOf(0).prefetchFills.get(), 0u);
}

TEST_F(HierarchyTest, PrefetchFromDramWhenAllowed)
{
    EXPECT_TRUE(hier.mlcPrefetch(0, 0x3000));
    EXPECT_TRUE(hier.mlcOf(0).contains(0x3000));
    EXPECT_EQ(hier.dram().readCount(), 1u);
    auto ref = hier.mlcOf(0).probe(0x3000);
    ASSERT_TRUE(ref);
    EXPECT_FALSE(ref.dirty()) << "DRAM-backed fill is clean";
}

TEST_F(HierarchyTest, PrefetchThenDemandReadHitsMlc)
{
    hier.pcieWrite(0x1000);
    hier.mlcPrefetch(0, 0x1000);
    const auto r = hier.coreRead(0, 0x1000);
    EXPECT_EQ(r.level, mem::HitLevel::MLC);
}

TEST_F(HierarchyTest, PrefetchIntoFullMlcEvicts)
{
    // Fill the MLC, then prefetch: the victim must take the normal
    // eviction path (this is exactly the overflow the IDIO FSM
    // regulates at high burst rates).
    const auto lines = hier.config().mlc.sizeBytes / mem::lineSize;
    for (std::uint64_t i = 0; i < lines; ++i)
        hier.coreWrite(0, 0x100000 + i * mem::lineSize);

    int observed = 0;
    auto countWb = [&](sim::CoreId) { ++observed; };
    hier.setMlcWbObserver(
        cache::MemoryHierarchy::MlcWbObserver::fromCallable(&countWb));

    hier.pcieWrite(0x1000);
    hier.mlcPrefetch(0, 0x1000);

    EXPECT_TRUE(hier.mlcOf(0).contains(0x1000));
    EXPECT_GE(hier.mlcOf(0).writebacks.get(), 1u);
    EXPECT_EQ(observed, 1) << "telemetry hook must see the writeback";
}

TEST_F(HierarchyTest, PrefetchToDifferentCoresIsIndependent)
{
    hier.pcieWrite(0x1000);
    hier.pcieWrite(0x2000);
    hier.mlcPrefetch(0, 0x1000);
    hier.mlcPrefetch(1, 0x2000);
    EXPECT_TRUE(hier.mlcOf(0).contains(0x1000));
    EXPECT_FALSE(hier.mlcOf(0).contains(0x2000));
    EXPECT_TRUE(hier.mlcOf(1).contains(0x2000));
}

} // anonymous namespace
