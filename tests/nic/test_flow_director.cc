/**
 * @file
 * Flow Director tests: EP rules, ATR learning, RSS fallback.
 */

#include <gtest/gtest.h>

#include "nic/flow_director.hh"

namespace
{

net::FiveTuple
flow(std::uint16_t srcPort, std::uint16_t dstPort = 5000)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = srcPort;
    t.dstPort = dstPort;
    return t;
}

TEST(FlowDirector, EpRuleWins)
{
    nic::FlowDirector fd(8);
    fd.addRule(flow(1000), 5);
    EXPECT_EQ(fd.lookup(flow(1000)), 5u);
    EXPECT_EQ(fd.ruleCount(), 1u);
}

TEST(FlowDirector, RemoveRuleRestoresFallback)
{
    nic::FlowDirector fd(8);
    const auto fallback = fd.lookup(flow(1000));
    fd.addRule(flow(1000), 7);
    EXPECT_EQ(fd.lookup(flow(1000)), 7u);
    fd.removeRule(flow(1000));
    EXPECT_EQ(fd.lookup(flow(1000)), fallback);
}

TEST(FlowDirector, AtrLearning)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    EXPECT_EQ(fd.lookup(flow(2000)), 3u);
    EXPECT_EQ(fd.learnedCount(), 1u);
}

TEST(FlowDirector, EpOverridesAtr)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    fd.addRule(flow(2000), 6);
    EXPECT_EQ(fd.lookup(flow(2000)), 6u);
}

TEST(FlowDirector, RssFallbackInRange)
{
    nic::FlowDirector fd(4);
    for (std::uint16_t p = 1; p < 200; ++p)
        EXPECT_LT(fd.lookup(flow(p)), 4u);
}

TEST(FlowDirector, RssFallbackSpreadsFlows)
{
    nic::FlowDirector fd(4);
    std::vector<int> hits(4, 0);
    for (std::uint16_t p = 1; p <= 400; ++p)
        ++hits[fd.lookup(flow(p, 6000 + p))];
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(hits[c], 40) << "core " << c;
}

TEST(FlowDirector, LearnIsIdempotentPerIndex)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    fd.learn(flow(2000), 4); // re-learn updates
    EXPECT_EQ(fd.lookup(flow(2000)), 4u);
    EXPECT_EQ(fd.learnedCount(), 1u);
}

TEST(FlowDirectorRss, DefaultRetaIsRoundRobinFill)
{
    nic::FlowDirector fd(8, 8192, /*rssTableEntries=*/128,
                         /*rssQueues=*/4);
    const auto &reta = fd.indirection();
    ASSERT_EQ(reta.size(), 128u);
    for (std::size_t i = 0; i < reta.size(); ++i)
        EXPECT_EQ(reta[i], i % 4) << "entry " << i;
}

TEST(FlowDirectorRss, RetaQueueAlwaysInRange)
{
    nic::FlowDirector fd(8, 8192, 128, 4);
    for (std::uint16_t p = 1; p <= 1000; ++p)
        EXPECT_LT(fd.rssQueue(flow(p, 6000 + p)), 4u);
}

TEST(FlowDirectorRss, SetIndirectionOverridesSteering)
{
    nic::FlowDirector fd(8, 8192, 128, 4);
    // Steer every hash bucket to queue 2: all flows land there.
    fd.setIndirection(std::vector<std::uint32_t>(128, 2));
    for (std::uint16_t p = 1; p <= 200; ++p)
        EXPECT_EQ(fd.rssQueue(flow(p, 6000 + p)), 2u);
}

TEST(FlowDirectorRss, LegacyModeMatchesDirectModulus)
{
    // rssTableEntries == 0 keeps the historical hash % numCores path
    // byte-for-byte; single-queue configs depend on this.
    nic::FlowDirector legacy(4);
    for (std::uint16_t p = 1; p <= 200; ++p) {
        const auto f = flow(p, 6000 + p);
        EXPECT_EQ(legacy.rssQueue(f),
                  net::toeplitzHash(f) % 4u);
        EXPECT_TRUE(legacy.indirection().empty());
    }
}

TEST(FlowDirectorRss, LookupFallsBackToReta)
{
    // With no EP rule and no ATR entry, lookup() routes through the
    // RETA, so a forced single-queue table steers everything.
    nic::FlowDirector fd(8, 8192, 64, 4);
    fd.setIndirection(std::vector<std::uint32_t>(64, 3));
    EXPECT_EQ(fd.lookup(flow(4242)), 3u);
    fd.addRule(flow(4242), 1); // EP still wins over RSS
    EXPECT_EQ(fd.lookup(flow(4242)), 1u);
}

TEST(FlowDirectorRssDeath, BadRetaUseIsFatal)
{
    EXPECT_EXIT(nic::FlowDirector(4, 8192, /*rssTableEntries=*/100),
                ::testing::ExitedWithCode(1), "power of two");

    nic::FlowDirector legacy(4);
    EXPECT_EXIT(legacy.setIndirection({0, 1, 2, 3}),
                ::testing::ExitedWithCode(1), "");

    nic::FlowDirector reta(4, 8192, 64, 4);
    EXPECT_EXIT(reta.setIndirection({0, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(FlowDirectorTargetDeath, EpRuleBeyondNumCoresIsFatal)
{
    // lookup() results index the classifier's per-core counters and
    // pick the MLC the IDIO hint goes to: a target >= numCores would
    // read past both.
    nic::FlowDirector fd(4);
    fd.addRule(flow(1000), 3);
    EXPECT_EQ(fd.lookup(flow(1000)), 3u);
    EXPECT_EXIT(fd.addRule(flow(1001), 4), ::testing::ExitedWithCode(1),
                "EP rule target 4 out of range .numCores 4.");
}

TEST(FlowDirectorTargetDeath, AtrBeyondNumCoresIsFatal)
{
    nic::FlowDirector fd(4);
    fd.learn(flow(2000), 3);
    EXPECT_EQ(fd.lookup(flow(2000)), 3u);
    EXPECT_EXIT(fd.learn(flow(2001), 9), ::testing::ExitedWithCode(1),
                "ATR target 9 out of range .numCores 4.");
}

TEST(FlowDirectorTargetDeath, RetaBeyondNumCoresIsFatal)
{
    nic::FlowDirector fd(4, 8192, 64, 4);
    fd.setIndirection(std::vector<std::uint32_t>(64, 3));
    std::vector<std::uint32_t> table(64, 0);
    table[63] = 4;
    EXPECT_EXIT(fd.setIndirection(table), ::testing::ExitedWithCode(1),
                "RETA entry target 4 out of range .numCores 4.");
    EXPECT_EXIT(nic::FlowDirector(4, 8192, 64, /*rssQueues=*/5),
                ::testing::ExitedWithCode(1),
                "RETA fill over 5 queues exceeds numCores 4");
}

TEST(FlowDirectorDeath, BadTableSizeIsFatal)
{
    EXPECT_EXIT(nic::FlowDirector(4, 1000),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(nic::FlowDirector(0), ::testing::ExitedWithCode(1),
                "at least one");
}

} // anonymous namespace
