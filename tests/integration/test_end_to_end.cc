/**
 * @file
 * End-to-end integration tests: full systems under realistic traffic,
 * checking packet accounting and steady-state behaviour.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "harness/system.hh"
#include "tenant_scenario.hh"

namespace
{

TEST(EndToEnd, BurstyTouchDropProcessesFullBursts)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    cfg.applyPolicy(idio::Policy::Ddio);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(25 * sim::oneMs); // bursts at ~0, 10 and 20 ms + drain

    const auto t = sys.totals();
    EXPECT_EQ(t.rxPackets, 3u * 2 * 1024) << "3 bursts x 2 NICs";
    EXPECT_EQ(t.rxDrops, 0u);
    EXPECT_EQ(t.processedPackets, t.rxPackets);
}

/** One machine layout the invariant checker has to cover. */
struct Layout
{
    const char *name;
    harness::ExperimentConfig (*config)();
    sim::Tick runTime;
};

void
PrintTo(const Layout &layout, std::ostream *os)
{
    *os << layout.name;
}

/** Two NFs on per-NF single-queue ports (the figure benches' shape). */
harness::ExperimentConfig
legacyConfig()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    cfg.applyPolicy(idio::Policy::Idio);
    return cfg;
}

/** Eight cores sharing one port with eight RSS-steered RX queues. */
harness::ExperimentConfig
multiQueueConfig()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 8;
    cfg.rxQueues = 8;
    cfg.totalFlows = 1024;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(idio::Policy::Idio);
    return cfg;
}

/** The canonical 3-tenant mix under IOCA, antagonist tenant included. */
harness::ExperimentConfig
tenantMixConfig()
{
    return bench::tenantMixConfig(bench::tenantSchemes[2]);
}

class EndToEndLayout : public ::testing::TestWithParam<Layout>
{
};

TEST_P(EndToEndLayout, InvariantCheckerSweepsTheWholeRun)
{
    // Acceptance gate for the correctness tooling: a full end-to-end
    // run must evaluate every registered invariant on every sweep,
    // with zero violations (a violation would have panicked the run),
    // whatever the machine layout.
    harness::TestSystem sys(GetParam().config());
    sys.start();
    sys.runFor(GetParam().runTime);

    auto &chk = sys.invariantChecker();
    EXPECT_GT(chk.numInvariants(), 0u);
    if (sim::InvariantChecker::compiledIn) {
        EXPECT_GE(chk.sweeps.get(), 1u)
            << "the periodic hook never fired";
        EXPECT_EQ(chk.evaluations.get(),
                  chk.sweeps.get() * chk.numInvariants())
            << "some registered invariant was skipped";
        EXPECT_EQ(chk.violations.get(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, EndToEndLayout,
    ::testing::Values(
        Layout{"legacy_2nf", legacyConfig, 25 * sim::oneMs},
        Layout{"multi_queue_8", multiQueueConfig, 2 * sim::oneMs},
        Layout{"tenant_mix", tenantMixConfig, bench::tenantHorizon}),
    [](const ::testing::TestParamInfo<Layout> &info) {
        return std::string(info.param.name);
    });

TEST(EndToEnd, SteadyOverloadDropsPackets)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 1;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 60.0; // far beyond one core's capacity
    cfg.applyPolicy(idio::Policy::Ddio);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(10 * sim::oneMs);

    EXPECT_GT(sys.totals().rxDrops, 0u)
        << "the paper observes drops above per-core capacity";
}

TEST(EndToEnd, SteadyModerateLoadLossFree)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 10.0; // the paper's loss-free steady point
    cfg.applyPolicy(idio::Policy::Ddio);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(10 * sim::oneMs);

    EXPECT_EQ(sys.totals().rxDrops, 0u);
    EXPECT_GT(sys.totals().processedPackets, 15000u);
}

TEST(EndToEnd, DmaTrafficReachesCachesNotDram)
{
    // The defining DDIO property: inbound line-rate traffic that is
    // consumed promptly produces no DRAM *read* traffic for payloads
    // and writes only on capacity evictions.
    harness::ExperimentConfig cfg;
    cfg.numNfs = 1;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 5.0;
    cfg.nic.ringSize = 128; // small ring: fits on chip
    cfg.applyPolicy(idio::Policy::Ddio);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(5 * sim::oneMs);

    const auto t = sys.totals();
    EXPECT_GT(t.rxPackets, 1000u);
    EXPECT_LT(t.dramReads, t.rxPackets)
        << "payloads are served on-chip";
}

TEST(EndToEnd, LatencyGrowsWithBurstRate)
{
    auto run = [](double gbps) {
        harness::ExperimentConfig cfg;
        cfg.numNfs = 1;
        cfg.traffic = harness::TrafficKind::Bursty;
        cfg.rateGbps = gbps;
        cfg.applyPolicy(idio::Policy::Ddio);
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(15 * sim::oneMs);
        return sys.nf(0).latency.p99();
    };

    const auto p99at10 = run(10.0);
    const auto p99at100 = run(100.0);
    EXPECT_GT(p99at100, p99at10)
        << "faster bursts queue more packets";
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    auto run = [] {
        harness::ExperimentConfig cfg;
        cfg.numNfs = 2;
        cfg.traffic = harness::TrafficKind::Bursty;
        cfg.rateGbps = 100.0;
        cfg.seed = 42;
        cfg.applyPolicy(idio::Policy::Idio);
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(12 * sim::oneMs);
        return sys.totals();
    };

    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.mlcWritebacks, b.mlcWritebacks);
    EXPECT_EQ(a.llcWritebacks, b.llcWritebacks);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.processedPackets, b.processedPackets);
}

TEST(EndToEnd, TimelineCapturesBurstShape)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.applyPolicy(idio::Policy::Ddio);

    harness::TestSystem sys(cfg);
    sys.trackDefaultSeries();
    sys.timeline().start();
    sys.start();
    sys.runFor(5 * sim::oneMs);

    const auto &dma = sys.timeline().series("dmaWrites");
    ASSERT_GT(dma.size(), 100u);
    // The burst appears as a high-rate spike followed by silence.
    EXPECT_GT(dma.peak(), 100.0) << "DMA rate in MTPS during burst";
    EXPECT_LT(dma.points().back().value, 1.0)
        << "silent after the burst drains";
}

} // anonymous namespace
