/**
 * @file
 * PhysAllocator tests: alignment, invalidatable pages.
 */

#include <gtest/gtest.h>

#include "mem/phys_alloc.hh"

namespace
{

TEST(PhysAlloc, DistinctNonOverlappingRegions)
{
    mem::PhysAllocator a;
    const sim::Addr x = a.allocate(4096);
    const sim::Addr y = a.allocate(4096);
    EXPECT_NE(x, y);
    EXPECT_GE(y, x + 4096);
}

TEST(PhysAlloc, RespectsAlignment)
{
    mem::PhysAllocator a;
    a.allocate(3); // misalign the bump pointer
    const sim::Addr x = a.allocate(100, 256);
    EXPECT_EQ(x % 256, 0u);
    const sim::Addr y = a.allocate(10, mem::pageSize);
    EXPECT_EQ(y % mem::pageSize, 0u);
}

TEST(PhysAlloc, NeverReturnsNull)
{
    mem::PhysAllocator a;
    EXPECT_NE(a.allocate(1), 0u);
}

TEST(PhysAlloc, InvalidatablePagesMarked)
{
    mem::PhysAllocator a;
    const sim::Addr inv = a.allocateInvalidatable(3 * mem::pageSize);
    const sim::Addr plain = a.allocate(mem::pageSize, mem::pageSize);

    EXPECT_TRUE(a.isInvalidatable(inv));
    EXPECT_TRUE(a.isInvalidatable(inv + mem::pageSize));
    EXPECT_TRUE(a.isInvalidatable(inv + 3 * mem::pageSize - 1));
    EXPECT_FALSE(a.isInvalidatable(plain));
}

TEST(PhysAlloc, InvalidatableCoversWholePagesOnly)
{
    mem::PhysAllocator a;
    // A sub-page request still protects the full page.
    const sim::Addr inv = a.allocateInvalidatable(100);
    EXPECT_TRUE(a.isInvalidatable(inv + 1000));
    EXPECT_EQ(inv % mem::pageSize, 0u);
}

TEST(PhysAlloc, InvalidatableRangesKeepTheirGaps)
{
    mem::PhysAllocator a;
    const sim::Addr before = a.allocate(mem::pageSize, mem::pageSize);
    const sim::Addr r1 = a.allocateInvalidatable(2 * mem::pageSize);
    const sim::Addr r2 = a.allocateInvalidatable(mem::pageSize); // adjacent
    const sim::Addr gap = a.allocate(mem::pageSize, mem::pageSize);
    const sim::Addr empty = a.allocateInvalidatable(0);
    const sim::Addr r3 = a.allocateInvalidatable(mem::pageSize);
    const sim::Addr after = a.allocate(mem::pageSize, mem::pageSize);
    ASSERT_EQ(r2, r1 + 2 * mem::pageSize);

    EXPECT_FALSE(a.isInvalidatable(0));
    EXPECT_FALSE(a.isInvalidatable(before));
    EXPECT_FALSE(a.isInvalidatable(r1 - 1));
    EXPECT_TRUE(a.isInvalidatable(r1));
    EXPECT_TRUE(a.isInvalidatable(r2 - 1));
    EXPECT_TRUE(a.isInvalidatable(r2));
    EXPECT_TRUE(a.isInvalidatable(r2 + mem::pageSize - 1));
    EXPECT_FALSE(a.isInvalidatable(gap));
    EXPECT_FALSE(a.isInvalidatable(r3 - 1));
    EXPECT_EQ(empty, r3); // a zero-byte buffer marks no page
    EXPECT_TRUE(a.isInvalidatable(r3));
    EXPECT_FALSE(a.isInvalidatable(after));
    EXPECT_FALSE(a.isInvalidatable(~sim::Addr(0)));
}

TEST(PhysAlloc, TracksAllocatedBytes)
{
    mem::PhysAllocator a;
    const auto before = a.allocatedBytes();
    a.allocate(1000, 64);
    EXPECT_GE(a.allocatedBytes(), before + 1000);
}

TEST(PhysAllocDeath, ExhaustionIsFatal)
{
    mem::PhysAllocator tiny(1 << 20, 4096);
    EXPECT_EXIT(tiny.allocate(1 << 20), ::testing::ExitedWithCode(1),
                "exhausted");
}

} // anonymous namespace
