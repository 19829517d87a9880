/**
 * @file
 * IDIO policy preset tests.
 */

#include <gtest/gtest.h>

#include "idio/config.hh"

namespace
{

using idio::IdioConfig;
using idio::Policy;

TEST(Presets, Ddio)
{
    const auto c = IdioConfig{.policy = Policy::Ddio};
    EXPECT_FALSE(c.selfInvalidate());
    EXPECT_FALSE(c.mlcPrefetch());
    EXPECT_FALSE(c.directDram());
}

TEST(Presets, InvalidateOnly)
{
    const auto c = IdioConfig{.policy = Policy::InvalidateOnly};
    EXPECT_TRUE(c.selfInvalidate());
    EXPECT_FALSE(c.mlcPrefetch());
}

TEST(Presets, PrefetchOnly)
{
    const auto c = IdioConfig{.policy = Policy::PrefetchOnly};
    EXPECT_FALSE(c.selfInvalidate());
    EXPECT_TRUE(c.mlcPrefetch());
    EXPECT_TRUE(c.dynamicFsm());
}

TEST(Presets, StaticHardcodesMlc)
{
    const auto c = IdioConfig{.policy = Policy::Static};
    EXPECT_TRUE(c.selfInvalidate());
    EXPECT_TRUE(c.mlcPrefetch());
    EXPECT_FALSE(c.dynamicFsm());
}

TEST(Presets, IdioEnablesEverything)
{
    const auto c = IdioConfig{.policy = Policy::Idio};
    EXPECT_TRUE(c.selfInvalidate());
    EXPECT_TRUE(c.mlcPrefetch());
    EXPECT_TRUE(c.dynamicFsm());
    EXPECT_TRUE(c.directDram());
}

TEST(Presets, PaperDefaults)
{
    const IdioConfig c;
    EXPECT_DOUBLE_EQ(c.mlcThrMtps, 50.0);
    EXPECT_EQ(c.controlInterval, sim::oneUs);
    EXPECT_EQ(c.avgWindow, 8192u);
    EXPECT_EQ(c.prefetchQueueDepth, 32u);
}

TEST(Presets, ThresholdConversion)
{
    IdioConfig c;
    c.mlcThrMtps = 50.0;
    c.controlInterval = sim::oneUs;
    // 50 MTPS over 1 us = 50 transactions.
    EXPECT_EQ(c.thresholdPerInterval(), 50u);

    c.mlcThrMtps = 10.0;
    EXPECT_EQ(c.thresholdPerInterval(), 10u);
}

TEST(PolicyNames, RoundTrip)
{
    for (auto p : {Policy::Ddio, Policy::InvalidateOnly,
                   Policy::PrefetchOnly, Policy::Static, Policy::Idio})
        EXPECT_EQ(idio::parsePolicy(idio::policyName(p)), p);
    EXPECT_EQ(idio::parsePolicy("idio"), Policy::Idio);
    EXPECT_EQ(idio::parsePolicy("ddio"), Policy::Ddio);
}

TEST(PolicyNamesDeath, UnknownIsFatal)
{
    EXPECT_EXIT(idio::parsePolicy("bogus"),
                ::testing::ExitedWithCode(1), "unknown");
}

} // anonymous namespace
