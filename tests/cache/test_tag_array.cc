/**
 * @file
 * TagArray tests: lookups, fills, masked fill slots, capacity.
 */

#include <gtest/gtest.h>

#include "cache/tag_array.hh"

namespace
{

using cache::TagArray;

TagArray
makeArray(std::uint64_t size, std::uint32_t assoc)
{
    return TagArray(size, assoc, cache::ReplKind::Lru);
}

TEST(TagArray, GeometryFromSize)
{
    TagArray a = makeArray(64 * 1024, 2);
    EXPECT_EQ(a.assoc(), 2u);
    EXPECT_EQ(a.numSets(), 512u);
    EXPECT_EQ(a.capacityBytes(), 64u * 1024);
}

TEST(TagArray, WithSetsFactory)
{
    TagArray a = TagArray::withSets(128, 4, cache::ReplKind::Lru);
    EXPECT_EQ(a.numSets(), 128u);
    EXPECT_EQ(a.capacityBytes(), 128u * 4 * 64);
}

TEST(TagArray, MissOnEmpty)
{
    TagArray a = makeArray(4096, 4);
    EXPECT_FALSE(a.lookup(0x1000));
    EXPECT_FALSE(a.contains(0x1000));
}

TEST(TagArray, FillThenHit)
{
    TagArray a = makeArray(4096, 4);
    auto slot = a.findFillSlot(0x1000);
    EXPECT_FALSE(slot.valid());
    a.fill(slot, 0x1000, true, false);

    auto ref = a.lookup(0x1000);
    ASSERT_TRUE(ref);
    EXPECT_TRUE(ref.dirty());
    EXPECT_FALSE(ref.io());
    EXPECT_EQ(ref.addr(), 0x1000u);
}

TEST(TagArray, LookupAlignsAddresses)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x1000), 0x1000, false, false);
    EXPECT_TRUE(a.lookup(0x1003));
    EXPECT_TRUE(a.lookup(0x103F));
    EXPECT_FALSE(a.lookup(0x1040));
}

TEST(TagArray, FillPrefersInvalidWay)
{
    TagArray a = makeArray(4 * 64, 4); // one set, 4 ways
    a.fill(a.findFillSlot(0x0), 0x0, false, false);
    auto slot = a.findFillSlot(0x1000);
    EXPECT_FALSE(slot.valid());
}

TEST(TagArray, EvictionWhenSetFull)
{
    TagArray a = makeArray(4 * 64, 4); // one set
    for (int i = 0; i < 4; ++i) {
        auto s = a.findFillSlot(i * 64);
        a.fill(s, i * 64, false, false);
    }
    auto victim = a.findFillSlot(0x5000);
    EXPECT_TRUE(victim.valid()); // caller must evict
    // LRU: line 0 was filled first and never touched again.
    EXPECT_EQ(victim.addr(), 0u);
}

TEST(TagArray, MaskedFillSlotStaysInMask)
{
    TagArray a = makeArray(8 * 64, 8); // one set, 8 ways
    for (int i = 0; i < 8; ++i)
        a.fill(a.findFillSlot(i * 64), i * 64, false, false);
    // DDIO-style: only ways 0-1 are candidates.
    for (int i = 0; i < 32; ++i) {
        auto slot = a.findFillSlot(0x9000 + i * 64, 0b11);
        EXPECT_LT(slot.way, 2u);
        a.invalidate(slot);
        a.fill(slot, 0x9000 + i * 64, false, true);
    }
    // Ways 2..7 still hold the original lines.
    for (int i = 2; i < 8; ++i)
        EXPECT_TRUE(a.lookup(i * 64));
}

TEST(TagArray, InvalidateClearsLine)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x40), 0x40, true, true);
    auto ref = a.lookup(0x40);
    ASSERT_TRUE(ref);
    a.invalidate(ref);
    EXPECT_FALSE(a.lookup(0x40));
}

TEST(TagArray, CountValidWithPredicate)
{
    TagArray a = makeArray(4096, 4);
    a.fill(a.findFillSlot(0x00), 0x00, false, true);
    a.fill(a.findFillSlot(0x40), 0x40, false, false);
    a.fill(a.findFillSlot(0x80), 0x80, true, true);

    EXPECT_EQ(a.countValid(), 3u);
    EXPECT_EQ(a.countValid([](const cache::CacheLine &l, std::uint32_t) {
                  return l.io;
              }),
              2u);
    EXPECT_EQ(a.countValid([](const cache::CacheLine &l, std::uint32_t) {
                  return l.dirty;
              }),
              1u);
}

TEST(TagArray, ClearEmptiesEverything)
{
    TagArray a = makeArray(4096, 4);
    for (int i = 0; i < 16; ++i)
        a.fill(a.findFillSlot(i * 64), i * 64, false, false);
    a.clear();
    EXPECT_EQ(a.countValid(), 0u);
}

TEST(TagArray, TouchAffectsLruOrder)
{
    TagArray a = makeArray(2 * 64, 2); // one set, 2 ways
    a.fill(a.findFillSlot(0x00), 0x00, false, false);
    a.fill(a.findFillSlot(0x40), 0x40, false, false);
    auto ref = a.lookup(0x00);
    a.touch(ref); // way holding 0x00 is now MRU
    auto victim = a.findFillSlot(0x9000);
    EXPECT_EQ(victim.addr(), 0x40u);
}

TEST(TagArray, TagsAreLineNumbersBelowTheReservedTag)
{
    // The highest line a tag can hold and one tag-width above it.
    const sim::Addr top = sim::Addr(cache::LineRef::invalidTag - 1)
                          << mem::lineShift;
    const sim::Addr above = sim::Addr(1) << (32 + mem::lineShift);
    TagArray a = makeArray(2 * 64, 2); // one set, 2 ways

    // The reserved invalid tag never matches an empty slot's probe.
    EXPECT_FALSE(a.lookup(top + mem::lineSize));
    EXPECT_FALSE(a.contains(top + mem::lineSize));

    a.fill(a.findFillSlot(top), top, false, false);
    a.fill(a.findFillSlot(0x40), 0x40, false, false);
    ASSERT_TRUE(a.lookup(top));
    EXPECT_EQ(a.lookup(top).addr(), top);

    // A line past the tag range misses, even where its low 32 bits
    // equal a resident line's number.
    EXPECT_FALSE(a.lookup(above + 0x40));
    EXPECT_FALSE(a.contains(above + 0x40));
    EXPECT_FALSE(a.lookup(above + top));
}

TEST(TagArrayDeath, FillPastTheTagRangeIsFatal)
{
    TagArray a = makeArray(4096, 4);
    for (const sim::Addr addr :
         {sim::Addr(cache::LineRef::invalidTag) << mem::lineShift,
          sim::Addr(1) << (32 + mem::lineShift), ~sim::Addr(0)}) {
        EXPECT_EXIT(a.fill(a.findFillSlot(addr), addr, false, false),
                    ::testing::ExitedWithCode(1), "32-bit tag range")
            << std::hex << addr;
    }
}

TEST(TagArrayDeath, BadGeometryIsFatal)
{
    EXPECT_EXIT(makeArray(100, 4), ::testing::ExitedWithCode(1),
                "cache size");
    EXPECT_EXIT(makeArray(4096, 0), ::testing::ExitedWithCode(1),
                "associativity");
}

} // anonymous namespace
