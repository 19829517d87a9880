/**
 * @file
 * Replacement policy tests, including masked victim selection. The
 * policies live in TagArray's set blocks, so each test fills a small
 * array and reads the victim from findFillSlot().
 */

#include <gtest/gtest.h>

#include "cache/tag_array.hh"

namespace
{

using cache::lowWays;
using cache::ReplKind;
using cache::TagArray;
using cache::WayMask;

/** One set of @p ways ways, every way filled in order 0, 1, ... */
TagArray
fullSet(std::uint32_t ways, ReplKind kind, std::uint32_t sets = 1)
{
    TagArray a = TagArray::withSets(sets, ways, kind);
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < ways; ++w)
            a.fill(a.at(s, w), (w * sets + s) * 64, false, false);
    }
    return a;
}

/** Victim way for a fill of set 0 among @p mask. */
std::uint32_t
victimOf(TagArray &a, WayMask mask, std::uint32_t set = 0)
{
    return a.findFillSlot(set * 64, mask).way;
}

TEST(LowWays, MaskConstruction)
{
    EXPECT_EQ(lowWays(0), 0u);
    EXPECT_EQ(lowWays(1), 0b1u);
    EXPECT_EQ(lowWays(2), 0b11u);
    EXPECT_EQ(lowWays(11), 0x7FFu);
    EXPECT_EQ(lowWays(64), ~WayMask(0));
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    TagArray a = fullSet(4, ReplKind::Lru);
    a.touch(a.at(0, 0)); // refresh way 0
    EXPECT_EQ(victimOf(a, lowWays(4)), 1u);
}

TEST(Lru, MaskRestrictsVictim)
{
    TagArray a = fullSet(4, ReplKind::Lru); // way 0 oldest overall
    // Only ways 2 and 3 are candidates: way 2 is the older of the two.
    EXPECT_EQ(victimOf(a, 0b1100), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    TagArray a = fullSet(2, ReplKind::Lru, 2);
    a.touch(a.at(1, 1));
    a.touch(a.at(1, 0));
    EXPECT_EQ(victimOf(a, 0b11, 0), 0u);
    EXPECT_EQ(victimOf(a, 0b11, 1), 1u);
}

TEST(Lru, ClockWrapKeepsTheOrder)
{
    // Thousands of touches wrap the per-set byte clock many times;
    // the victim must stay the way touched longest ago.
    TagArray a = fullSet(8, ReplKind::Lru);
    for (std::uint32_t i = 0; i < 5000; ++i) {
        const std::uint32_t w = (i * 5) % 8;
        a.touch(a.at(0, w));
        // Stepping by 5 visits all 8 ways in turn, so the least
        // recent is the way touched seven steps back.
        if (i >= 8) {
            EXPECT_EQ(victimOf(a, lowWays(8)), ((i + 1) * 5) % 8)
                << "after touch " << i;
        }
    }
}

TEST(Random, AlwaysReturnsCandidate)
{
    TagArray a = fullSet(8, ReplKind::Random);
    for (int i = 0; i < 1000; ++i) {
        const auto v = victimOf(a, 0b10100100);
        EXPECT_TRUE(v == 2 || v == 5 || v == 7);
    }
}

TEST(Random, SingleCandidate)
{
    TagArray a = fullSet(8, ReplKind::Random);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(victimOf(a, 0b1000), 3u);
}

TEST(Srrip, VictimHasDistantRrpv)
{
    // Fills insert at "long" (max-1); aging brings every way to the
    // distant value together, and the lowest way goes first.
    TagArray a = fullSet(4, ReplKind::Srrip);
    EXPECT_EQ(victimOf(a, lowWays(4)), 0u);
    a.fill(a.at(0, 0), 0x1000, false, false);
    // Now way 0 is "long" again and the others are distant.
    EXPECT_EQ(victimOf(a, lowWays(4)), 1u);
}

TEST(Srrip, HitPromotionProtects)
{
    TagArray a = fullSet(2, ReplKind::Srrip);
    a.touch(a.at(0, 0)); // promote way 0 to RRPV 0
    // Aging should evict way 1 first.
    EXPECT_EQ(victimOf(a, 0b11), 1u);
}

TEST(ReplacementPolicy, TouchRepeatMatchesRepeatedTouches)
{
    // touchRepeat(n) must leave exactly the state of n touch() calls:
    // a sleeping core credits its skipped L1 hits through it.
    for (ReplKind kind : {ReplKind::Lru, ReplKind::Srrip, ReplKind::Random}) {
        TagArray a = fullSet(4, kind, 2);
        TagArray b = fullSet(4, kind, 2);
        a.touch(a.at(1, 0));
        b.touch(b.at(1, 0));
        for (int i = 0; i < 5; ++i)
            a.touch(a.at(1, 2));
        b.touchRepeat(b.at(1, 2), 5);
        b.touchRepeat(b.at(1, 3), 0); // zero repeats change nothing
        a.touch(a.at(1, 1));
        b.touch(b.at(1, 1));
        for (WayMask m : {lowWays(4), WayMask(0b1101), WayMask(0b0110)}) {
            const auto va = a.findFillSlot(64, m);
            const auto vb = b.findFillSlot(64, m);
            EXPECT_EQ(va.way, vb.way) << static_cast<int>(kind);
            a.fill(va, va.addr() + 4096, false, false);
            b.fill(vb, vb.addr() + 4096, false, false);
        }
    }
}

} // anonymous namespace
