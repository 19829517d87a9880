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

/**
 * runFor() sweeps the invariant checker once after a call that
 * crossed a multiple of TestSystem::checkGrid (landing on one counts).
 */
class InvariantSweepGrid : public ::testing::Test
{
  protected:
    InvariantSweepGrid() : sys(config()) { sys.start(); }

    static harness::ExperimentConfig
    config()
    {
        harness::ExperimentConfig cfg;
        cfg.traffic = harness::TrafficKind::Steady;
        cfg.rateGbps = 5.0;
        return cfg;
    }

    /** Sweeps so far (none when the checker is compiled out). */
    std::uint64_t sweeps() { return sys.invariantChecker().sweeps.get(); }

    static std::uint64_t
    expected(std::uint64_t n)
    {
        return sim::InvariantChecker::compiledIn ? n : 0;
    }

    static constexpr sim::Tick grid = harness::TestSystem::checkGrid;
    harness::TestSystem sys;
};

TEST_F(InvariantSweepGrid, CallCrossingNoGridPointDoesNotSweep)
{
    sys.runFor(grid / 2);
    sys.runFor(grid / 2 - sim::oneNs);
    EXPECT_EQ(sweeps(), 0u);
}

TEST_F(InvariantSweepGrid, CallCrossingSeveralGridPointsSweepsOnce)
{
    sys.runFor(grid / 2);
    sys.runFor(3 * grid); // crosses 100, 200 and 300 us
    EXPECT_EQ(sweeps(), expected(1));
}

TEST_F(InvariantSweepGrid, TenMicrosecondStepsSweepOncePerGridPoint)
{
    for (int i = 0; i < 100; ++i)
        sys.runFor(10 * sim::oneUs);
    ASSERT_EQ(sys.simulation().now(), 10 * grid);
    EXPECT_EQ(sweeps(), expected(10));
}

TEST(SystemDeath, DoubleStartPanics)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    sys.start();
    EXPECT_DEATH(sys.start(), "started twice");
}

} // anonymous namespace
