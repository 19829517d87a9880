/**
 * @file
 * Device-side hierarchy flow tests: the exact P1..P5 ingress/egress
 * transitions of paper Fig. 1, DDIO-way overflow (DMA leak), and the
 * direct-DRAM path.
 */

#include "hierarchy_fixture.hh"

namespace
{

using testutil::HierarchyTest;

// ---------------------------------------------------------------- P5

TEST_F(HierarchyTest, P5UncachedWriteAllocatesInDdioWays)
{
    hier.pcieWrite(0x1000);

    auto ref = hier.llc().probe(0x1000);
    ASSERT_TRUE(ref);
    EXPECT_LT(ref.way, hier.llc().ddioWays());
    EXPECT_TRUE(ref.dirty());
    EXPECT_TRUE(ref.io());
    EXPECT_EQ(hier.llc().ddioAllocs.get(), 1u);
    EXPECT_EQ(hier.dram().writeCount(), 0u) << "DDIO bypasses DRAM";
}

// ---------------------------------------------------------------- P4

TEST_F(HierarchyTest, P4DdioWayHitUpdatesInPlace)
{
    hier.pcieWrite(0x1000);
    const int way = llcWayOf(0x1000);
    hier.pcieWrite(0x1000);

    EXPECT_EQ(llcWayOf(0x1000), way);
    EXPECT_EQ(hier.llc().ddioAllocs.get(), 1u);
    EXPECT_EQ(hier.llc().ddioUpdates.get(), 1u);
}

// ---------------------------------------------------------------- P3

TEST_F(HierarchyTest, P3NonDdioLlcLineUpdatedInPlace)
{
    // Build P3: CPU-owned line spilled into a non-DDIO LLC way.
    hier.coreWrite(0, 0x1000);
    churnMlc(0);
    auto before = hier.llc().probe(0x1000);
    ASSERT_TRUE(before);

    const int way = llcWayOf(0x1000);
    hier.pcieWrite(0x1000);

    auto after = hier.llc().probe(0x1000);
    ASSERT_TRUE(after);
    EXPECT_EQ(llcWayOf(0x1000), way) << "in-place update, same way";
    EXPECT_TRUE(after.dirty());
    EXPECT_TRUE(after.io()) << "the line is I/O data now";
    EXPECT_GE(hier.llc().ddioUpdates.get(), 1u);
}

// ---------------------------------------------------------------- P1

TEST_F(HierarchyTest, P1MlcExclusiveLineInvalidatedAndReallocated)
{
    // Build P1: line exclusively in core 0's MLC.
    hier.coreRead(0, 0x2000);
    ASSERT_TRUE(hier.mlcOf(0).contains(0x2000));
    ASSERT_FALSE(hier.llc().contains(0x2000));

    hier.pcieWrite(0x2000);

    // Step P1-1: MLC copy invalidated without writeback.
    EXPECT_FALSE(hier.mlcOf(0).contains(0x2000));
    EXPECT_FALSE(hier.l1(0).contains(0x2000));
    EXPECT_EQ(hier.mlcOf(0).pcieInvals.get(), 1u);
    EXPECT_EQ(hier.mlcOf(0).writebacks.get(), 0u);

    // Step P1-2: write-allocated into the DDIO ways.
    auto ref = hier.llc().probe(0x2000);
    ASSERT_TRUE(ref);
    EXPECT_LT(ref.way, hier.llc().ddioWays());
    EXPECT_FALSE(hier.directory().isTracked(0x2000));
}

// ------------------------------------------------------- multi-sharer

TEST_F(HierarchyTest, PcieWriteInvalidatesEverySharer)
{
    hier.coreRead(0, 0x2000);
    hier.coreRead(1, 0x2000); // migrates to core 1
    hier.coreRead(0, 0x2000); // migrates back... single owner model
    // Whichever core holds it, the DMA write must reach it.
    hier.pcieWrite(0x2000);
    EXPECT_FALSE(hier.mlcOf(0).contains(0x2000));
    EXPECT_FALSE(hier.mlcOf(1).contains(0x2000));
}

// ------------------------------------------------------ DMA leak

TEST_F(HierarchyTest, DdioWayOverflowLeaksToDram)
{
    // LLC: 8 KB 4-way = 32 sets; DDIO capacity = 2 ways * 32 sets =
    // 64 lines. Stream 4x that without any CPU consumption.
    for (int i = 0; i < 256; ++i)
        hier.pcieWrite(0x100000 + std::uint64_t(i) * 64);

    EXPECT_GT(hier.llc().ddioWayEvictions.get(), 0u);
    EXPECT_GT(hier.dram().writeCount(), 0u) << "DMA leak is dirty";
    EXPECT_GT(hier.llc().writebacks.get(), 0u);
    // Non-DDIO ways stay untouched by pure DMA traffic.
    const auto outside = hier.llc().tags().countValid(
        [&](const cache::CacheLine &, std::uint32_t way) {
            return way >= hier.llc().ddioWays();
        });
    EXPECT_EQ(outside, 0u);
}

// ------------------------------------------------------ egress (TX)

TEST_F(HierarchyTest, PcieReadPullsDirtyMlcCopyIntoLlc)
{
    hier.coreWrite(0, 0x4000); // dirty private copy
    const std::uint64_t wbBefore = hier.mlcOf(0).writebacks.get();
    const auto dramReadsAfterFill = hier.dram().readCount();

    hier.pcieRead(0x4000);

    EXPECT_FALSE(hier.mlcOf(0).contains(0x4000))
        << "egress read invalidates the MLC copy (Fig. 3 right)";
    EXPECT_TRUE(hier.llc().contains(0x4000));
    EXPECT_EQ(hier.mlcOf(0).writebacks.get(), wbBefore + 1);
    EXPECT_EQ(hier.dram().readCount(), dramReadsAfterFill)
        << "the egress read is served on-chip";
}

TEST_F(HierarchyTest, PcieReadServedFromLlc)
{
    hier.pcieWrite(0x4000);
    const auto lat = hier.pcieRead(0x4000);
    EXPECT_TRUE(hier.llc().contains(0x4000)) << "LLC copy stays";
    EXPECT_EQ(hier.dram().readCount(), 0u);
    EXPECT_GT(lat, 0u);
}

TEST_F(HierarchyTest, PcieReadFallsBackToDram)
{
    const auto lat = hier.pcieRead(0x9000);
    EXPECT_EQ(hier.dram().readCount(), 1u);
    EXPECT_GE(lat, sim::nsToTicks(mem::DramModel::latencyNs));
}

TEST_F(HierarchyTest, PcieReadOfCleanMlcCopyServedFromMemorySide)
{
    hier.coreRead(0, 0x4000); // clean copy in MLC (DRAM-backed)
    hier.pcieRead(0x4000);
    // Clean copy invalidated, data served from DRAM (it is backed).
    EXPECT_FALSE(hier.mlcOf(0).contains(0x4000));
    EXPECT_EQ(hier.dram().readCount(), 2u); // fill + egress
}

// ------------------------------------------------- direct DRAM (M3)

TEST_F(HierarchyTest, DirectDramWriteBypassesCaches)
{
    hier.pcieWriteDirectDram(0x6000);
    EXPECT_FALSE(hier.llc().contains(0x6000));
    EXPECT_EQ(hier.dram().writeCount(), 1u);
    EXPECT_EQ(hier.directDramWrites.get(), 1u);
}

TEST_F(HierarchyTest, DirectDramWriteInvalidatesStaleCopies)
{
    hier.coreRead(0, 0x6000);                 // MLC copy
    hier.pcieWrite(0x6040);                   // unrelated
    hier.pcieWrite(0x6080);                   // LLC copy to drop later
    hier.pcieWriteDirectDram(0x6000);
    hier.pcieWriteDirectDram(0x6080);

    EXPECT_FALSE(hier.mlcOf(0).contains(0x6000));
    EXPECT_FALSE(hier.llc().contains(0x6080));
    // No writeback of the stale data (it was dead).
    EXPECT_EQ(hier.dram().writeCount(), 2u);
}

TEST_F(HierarchyTest, PcieWriteCountsTracked)
{
    hier.pcieWrite(0x100);
    hier.pcieWrite(0x140);
    hier.pcieWriteDirectDram(0x180);
    EXPECT_EQ(hier.pcieWrites.get(), 3u);
}

} // anonymous namespace
