/**
 * @file
 * Replacement policy tests, including masked victim selection.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"

namespace
{

using cache::lowWays;
using cache::WayMask;

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
    cache::LruPolicy lru;
    lru.init(1, 4);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.touch(0, 3);
    lru.touch(0, 0); // refresh way 0
    EXPECT_EQ(lru.victim(0, lowWays(4)), 1u);
}

TEST(Lru, MaskRestrictsVictim)
{
    cache::LruPolicy lru;
    lru.init(1, 4);
    lru.touch(0, 0); // oldest overall
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.touch(0, 3);
    // Only ways 2 and 3 are candidates: way 2 is the older of the two.
    EXPECT_EQ(lru.victim(0, 0b1100), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    cache::LruPolicy lru;
    lru.init(2, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(1, 1);
    lru.touch(1, 0);
    EXPECT_EQ(lru.victim(0, 0b11), 0u);
    EXPECT_EQ(lru.victim(1, 0b11), 1u);
}

TEST(Random, AlwaysReturnsCandidate)
{
    cache::RandomPolicy rnd(1);
    rnd.init(1, 8);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rnd.victim(0, 0b10100100);
        EXPECT_TRUE(v == 2 || v == 5 || v == 7);
    }
}

TEST(Random, SingleCandidate)
{
    cache::RandomPolicy rnd(2);
    rnd.init(1, 8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rnd.victim(0, 0b1000), 3u);
}

TEST(Srrip, VictimHasDistantRrpv)
{
    cache::SrripPolicy srrip;
    srrip.init(1, 4);
    // All start at max RRPV; way 0 is chosen first (lowest index).
    EXPECT_EQ(srrip.victim(0, lowWays(4)), 0u);
    srrip.fill(0, 0);
    // Now way 0 is "long" (max-1) and the others are still distant.
    EXPECT_EQ(srrip.victim(0, lowWays(4)), 1u);
}

TEST(Srrip, HitPromotionProtects)
{
    cache::SrripPolicy srrip;
    srrip.init(1, 2);
    srrip.fill(0, 0);
    srrip.fill(0, 1);
    srrip.touch(0, 0); // promote way 0 to RRPV 0
    // Aging should evict way 1 first.
    EXPECT_EQ(srrip.victim(0, 0b11), 1u);
}

TEST(Factory, KnownNames)
{
    EXPECT_EQ(cache::makeReplacementPolicy("lru")->name(), "lru");
    EXPECT_EQ(cache::makeReplacementPolicy("random")->name(), "random");
    EXPECT_EQ(cache::makeReplacementPolicy("srrip")->name(), "srrip");
}

TEST(FactoryDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(cache::makeReplacementPolicy("plru"),
                ::testing::ExitedWithCode(1), "unknown replacement");
}

TEST(ReplacementPolicy, TouchRepeatMatchesRepeatedTouches)
{
    // touchRepeat(n) must leave exactly the state of n touch() calls:
    // a sleeping core credits its skipped L1 hits through it.
    for (const char *name : {"lru", "srrip", "random"}) {
        auto a = cache::makeReplacementPolicy(name, 3);
        auto b = cache::makeReplacementPolicy(name, 3);
        a->init(2, 4);
        b->init(2, 4);
        for (std::uint32_t w = 0; w < 4; ++w) {
            a->fill(1, w);
            b->fill(1, w);
        }
        a->touch(1, 0);
        b->touch(1, 0);
        for (int i = 0; i < 5; ++i)
            a->touch(1, 2);
        b->touchRepeat(1, 2, 5);
        b->touchRepeat(1, 3, 0); // zero repeats change nothing
        a->touch(1, 1);
        b->touch(1, 1);
        for (WayMask m : {lowWays(4), WayMask(0b1101), WayMask(0b0110)}) {
            EXPECT_EQ(a->victim(1, m), b->victim(1, m)) << name;
            a->fill(1, a->victim(1, lowWays(4)));
            b->fill(1, b->victim(1, lowWays(4)));
        }
    }
}

} // anonymous namespace
