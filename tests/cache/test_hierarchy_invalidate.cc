/**
 * @file
 * Self-invalidating I/O buffer tests (paper Secs. IV-A and V-D).
 */

#include "hierarchy_fixture.hh"

#include "mem/phys_alloc.hh"

namespace
{

using testutil::HierarchyTest;

TEST_F(HierarchyTest, InvalidateDropsWithoutWriteback)
{
    hier.coreWrite(0, 0x1000); // dirty line in L1+MLC
    const auto dramBefore = hier.dram().writeCount();
    const auto inserts = hier.llc().victimInserts.get();

    EXPECT_TRUE(hier.coreInvalidate(0, 0x1000));

    EXPECT_FALSE(hier.l1(0).contains(0x1000));
    EXPECT_FALSE(hier.mlcOf(0).contains(0x1000));
    EXPECT_FALSE(hier.directory().isTracked(0x1000));
    EXPECT_EQ(hier.dram().writeCount(), dramBefore);
    EXPECT_EQ(hier.llc().victimInserts.get(), inserts)
        << "no LLC allocation may result from a self-invalidate";
    EXPECT_EQ(hier.mlcOf(0).selfInvals.get(), 1u);
}

TEST_F(HierarchyTest, InvalidateReachesLlcByDefault)
{
    hier.pcieWrite(0x2000); // dirty I/O line in the LLC
    EXPECT_TRUE(hier.coreInvalidate(0, 0x2000));
    EXPECT_FALSE(hier.llc().contains(0x2000));
    EXPECT_EQ(hier.llc().selfInvals.get(), 1u);
    EXPECT_EQ(hier.dram().writeCount(), 0u);
}

TEST_F(HierarchyTest, InvalidateUncachedLineIsHarmless)
{
    EXPECT_TRUE(hier.coreInvalidate(0, 0xABCD00));
    EXPECT_EQ(hier.mlcOf(0).selfInvals.get(), 0u);
}

TEST_F(HierarchyTest, InvalidateRangeCoversAllLines)
{
    // A 1514-byte frame spans 24 lines.
    const sim::Addr buf = 0x10000;
    for (int i = 0; i < 24; ++i)
        hier.coreRead(0, buf + std::uint64_t(i) * 64);

    const auto dropped = hier.invalidateRange(0, buf, 1514);
    EXPECT_EQ(dropped, 24u);
    for (int i = 0; i < 24; ++i)
        EXPECT_FALSE(hier.mlcOf(0).contains(buf + std::uint64_t(i) * 64));
}

TEST_F(HierarchyTest, InvalidateRangeCountsOnlyPresentLines)
{
    const sim::Addr buf = 0x20000;
    hier.coreRead(0, buf); // only the first line is cached
    const auto dropped = hier.invalidateRange(0, buf, 2048);
    EXPECT_EQ(dropped, 1u);
}

TEST_F(HierarchyTest, InvalidateRangeOfZeroBytesTouchesNothing)
{
    hier.coreRead(0, 0x10040);
    hier.coreRead(0, 0);
    // Unaligned: the old last-line arithmetic dropped the line anyway.
    EXPECT_EQ(hier.invalidateRange(0, 0x10045, 0), 0u);
    EXPECT_TRUE(hier.mlcOf(0).contains(0x10040));
    EXPECT_TRUE(hier.l1(0).contains(0x10040));
    // At address 0 it walked ~2^58 lines.
    EXPECT_EQ(hier.invalidateRange(0, 0, 0), 0u);
    EXPECT_TRUE(hier.mlcOf(0).contains(0));
    EXPECT_EQ(hier.mlcOf(0).selfInvals.get(), 0u);
}

TEST(HierarchyInvalidatable, NonInvalidatablePageFaults)
{
    mem::PhysAllocator alloc;
    const sim::Addr plain = alloc.allocate(mem::pageSize, mem::pageSize);
    const sim::Addr inv = alloc.allocateInvalidatable(mem::pageSize);

    auto cfg = testutil::tinyConfig();
    cfg.pageAttributes = &alloc;
    sim::Simulation s;
    cache::MemoryHierarchy h(s, "sys", cfg);

    h.coreWrite(0, plain);
    h.coreWrite(0, inv);

    // Plain page: the drop is refused and the line survives.
    EXPECT_FALSE(h.coreInvalidate(0, plain));
    EXPECT_TRUE(h.mlcOf(0).contains(plain));
    EXPECT_EQ(h.selfInvalFaults.get(), 1u);

    // Invalidatable page: the drop goes through.
    EXPECT_TRUE(h.coreInvalidate(0, inv));
    EXPECT_FALSE(h.mlcOf(0).contains(inv));
}

TEST_F(HierarchyTest, InvalidatedDirtyDataNeverReachesDram)
{
    // The headline property of M1: a consumed (dirty) DMA buffer that
    // is self-invalidated must never generate DRAM write bandwidth.
    const sim::Addr buf = 0x30000;
    for (int i = 0; i < 24; ++i) {
        hier.pcieWrite(buf + std::uint64_t(i) * 64);
        hier.coreRead(0, buf + std::uint64_t(i) * 64);
    }
    hier.invalidateRange(0, buf, 1514);
    churnMlc(0);

    // Churn lines are clean; any DRAM write would have to come from
    // the invalidated buffer — there must be none.
    EXPECT_EQ(hier.dram().writeCount(), 0u);
}

TEST_F(HierarchyTest, ReloadAfterInvalidateComesFromDram)
{
    hier.coreWrite(0, 0x1000);
    hier.coreInvalidate(0, 0x1000);
    const auto r = hier.coreRead(0, 0x1000);
    // The dropped data is gone; the reload is a DRAM fill (the model
    // does not check data values — the instruction is only legal on
    // dead buffers).
    EXPECT_EQ(r.level, mem::HitLevel::DRAM);
}

} // anonymous namespace
