/**
 * @file
 * TestSystem builder tests.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace
{

TEST(System, BuildsRequestedTopology)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 3;
    cfg.withAntagonist = true;
    harness::TestSystem sys(cfg);

    EXPECT_EQ(sys.numNfs(), 3u);
    EXPECT_EQ(sys.hierarchy().numCores(), 4u);
    EXPECT_NE(sys.antagonist(), nullptr);
    // Total LLC scales with core count (per-core slices).
    EXPECT_EQ(sys.hierarchy().llc().tags().capacityBytes(),
              4ull * cfg.hier.llcPerCore.sizeBytes);
}

TEST(System, AntagonistMlcShrunk)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.withAntagonist = true;
    harness::TestSystem sys(cfg);

    EXPECT_EQ(sys.hierarchy().mlcOf(2).tags().capacityBytes(),
              256u * 1024);
    EXPECT_EQ(sys.hierarchy().mlcOf(0).tags().capacityBytes(),
              1024u * 1024);
}

TEST(System, NoAntagonistByDefault)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    EXPECT_EQ(sys.antagonist(), nullptr);
    EXPECT_EQ(sys.hierarchy().numCores(), 2u);
}

TEST(System, FlowRulesSteerToOwnCore)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.flowsPerNf = 4;
    harness::TestSystem sys(cfg);

    // Each NIC's flow director has EP rules pinning its NF's flows.
    EXPECT_EQ(sys.nicPort(0).flowDirector().ruleCount(), 4u);
    EXPECT_EQ(sys.nicPort(1).flowDirector().ruleCount(), 4u);
}

TEST(System, PolicyPresetSyncsNfConfig)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    EXPECT_TRUE(cfg.nf.selfInvalidate);
    cfg.applyPolicy(idio::Policy::Ddio);
    EXPECT_FALSE(cfg.nf.selfInvalidate);
}

TEST(System, SummaryMentionsKeyParameters)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.rateGbps = 25.0;
    const auto s = cfg.summary();
    EXPECT_NE(s.find("IDIO"), std::string::npos);
    EXPECT_NE(s.find("25"), std::string::npos);
    EXPECT_NE(s.find("TouchDrop"), std::string::npos);
}

TEST(System, RunAdvancesSimulatedTime)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(sim::oneMs);
    EXPECT_EQ(sys.simulation().now(), sim::oneMs);
}

TEST(System, TotalsSnapshotDelta)
{
    harness::ExperimentConfig cfg;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 5.0;
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(sim::oneMs);
    const auto a = sys.totals();
    sys.runFor(sim::oneMs);
    const auto b = sys.totals();
    const auto d = b - a;
    EXPECT_GT(d.rxPackets, 0u);
    EXPECT_LE(d.rxPackets, b.rxPackets);
}

TEST(SystemDeath, DoubleStartPanics)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    sys.start();
    EXPECT_DEATH(sys.start(), "started twice");
}

} // anonymous namespace
