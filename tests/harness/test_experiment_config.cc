/**
 * @file
 * ExperimentConfig / HierarchyConfig helper tests.
 */

#include <gtest/gtest.h>

#include "harness/experiment_config.hh"
#include "idio/prefetcher.hh"
#include "mem/dram.hh"

namespace
{

TEST(ExperimentConfig, TableOneDefaults)
{
    const harness::ExperimentConfig cfg;
    EXPECT_EQ(cfg.hier.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.hier.l1.assoc, 2u);
    EXPECT_EQ(cfg.hier.mlc.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.hier.mlc.assoc, 8u);
    EXPECT_EQ(cfg.hier.llcPerCore.sizeBytes, 1536u * 1024);
    EXPECT_EQ(cfg.hier.llcPerCore.assoc, 12u);
    EXPECT_EQ(cfg.hier.ddioWays, 2u);
    EXPECT_DOUBLE_EQ(cfg.hier.cpuFreqGHz, 3.0);
    EXPECT_EQ(cfg.nic.ringSize, 1024u);
    EXPECT_EQ(cfg.frameBytes, 1514u);
    EXPECT_EQ(cfg.burstPeriod, 10 * sim::oneMs);

    // The Table I values that are constants, not fields.
    EXPECT_EQ(mem::DramModel::latencyNs, 60.0);
    EXPECT_EQ(mem::DramModel::bandwidthGBps, 60.0);
    EXPECT_EQ(nic::IdioClassifier::rxBurstThresholdGbps, 10.0);
    EXPECT_EQ(nic::IdioClassifier::counterInterval, sim::oneUs);
    EXPECT_EQ(idio::controlInterval, sim::oneUs);
    EXPECT_EQ(idio::avgWindow, 8192u);
    EXPECT_EQ(idio::prefetchQueueDepth, 32u);
}

TEST(ExperimentConfig, EffectiveBurstPackets)
{
    harness::ExperimentConfig cfg;
    EXPECT_EQ(cfg.effectiveBurstPackets(), cfg.nic.ringSize)
        << "0 means 'ring size', the paper's burst-length rule";
    cfg.burstPackets = 77;
    EXPECT_EQ(cfg.effectiveBurstPackets(), 77u);
}

TEST(ExperimentConfig, NfKindNames)
{
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::TouchDrop),
                 "TouchDrop");
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::CopyTouchDrop),
                 "CopyTouchDrop");
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::L2Fwd), "L2Fwd");
    EXPECT_STREQ(
        harness::nfKindName(harness::NfKind::L2FwdDropPayload),
        "L2FwdDropPayload");
}

TEST(ExperimentConfig, SummaryCoversTrafficKinds)
{
    harness::ExperimentConfig cfg;
    cfg.traffic = harness::TrafficKind::Steady;
    EXPECT_NE(cfg.summary().find("steady"), std::string::npos);
    cfg.traffic = harness::TrafficKind::Poisson;
    EXPECT_NE(cfg.summary().find("poisson"), std::string::npos);
    cfg.traffic = harness::TrafficKind::None;
    EXPECT_NE(cfg.summary().find("external"), std::string::npos);
}

TEST(HierarchyConfig, CycleConversions)
{
    cache::HierarchyConfig cfg;
    EXPECT_EQ(cfg.cyclePeriod(), 333u); // 3 GHz
    EXPECT_EQ(cfg.cyclesToTicks(12), 12u * 333);
}

TEST(HierarchyConfig, MlcSizeOverride)
{
    cache::HierarchyConfig cfg;
    cfg.numCores = 3;
    EXPECT_EQ(cfg.mlcSize(0), 1024u * 1024);
    cfg.mlcSizeOverride = {0, 0, 256 * 1024};
    EXPECT_EQ(cfg.mlcSize(0), 1024u * 1024) << "0 means no override";
    EXPECT_EQ(cfg.mlcSize(2), 256u * 1024);
}

TEST(HierarchyConfig, CoreLlcMaskDefaultsToAllWays)
{
    cache::HierarchyConfig cfg;
    EXPECT_EQ(cfg.coreLlcMask(0), ~cache::WayMask(0));
    cfg.llcAllocMask = {0b100};
    EXPECT_EQ(cfg.coreLlcMask(0), 0b100u);
    EXPECT_EQ(cfg.coreLlcMask(1), ~cache::WayMask(0))
        << "unlisted cores are unrestricted";
}

TEST(HierarchyConfig, TotalLlcScalesWithCores)
{
    cache::HierarchyConfig cfg;
    cfg.numCores = 4;
    EXPECT_EQ(cfg.llcSizeBytes(), 4u * 1536 * 1024);
}

} // anonymous namespace
