/**
 * @file
 * End-to-end integration tests: full systems under realistic traffic,
 * checking packet accounting and steady-state behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
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

const Layout legacyLayout{"legacy_2nf", legacyConfig, 25 * sim::oneMs};
const Layout multiQueueLayout{"multi_queue_8", multiQueueConfig,
                              2 * sim::oneMs};

std::string
layoutName(const ::testing::TestParamInfo<Layout> &info)
{
    return info.param.name;
}

class EndToEndLayout : public ::testing::TestWithParam<Layout>
{
};

TEST_P(EndToEndLayout, InvariantCheckerSweepsTheWholeRun)
{
    // Acceptance gate for the correctness tooling: a full end-to-end
    // run must evaluate every registered invariant on every sweep,
    // with zero violations (a violation would have panicked the run),
    // whatever the machine layout. Stepping in 10 us quanta (as the
    // benches do) sweeps once per checker grid point crossed.
    harness::TestSystem sys(GetParam().config());
    sys.start();
    constexpr sim::Tick quantum = 10 * sim::oneUs;
    for (sim::Tick t = 0; t < GetParam().runTime; t += quantum)
        sys.runFor(quantum);

    auto &chk = sys.invariantChecker();
    EXPECT_GT(chk.numInvariants(), 0u);
    if (sim::InvariantChecker::compiledIn) {
        EXPECT_EQ(chk.sweeps.get(),
                  GetParam().runTime / harness::TestSystem::checkGrid)
            << "one sweep per grid point crossed";
        EXPECT_EQ(chk.evaluations.get(),
                  chk.sweeps.get() * chk.numInvariants())
            << "some registered invariant was skipped";
        EXPECT_EQ(chk.violations.get(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, EndToEndLayout,
    ::testing::Values(
        legacyLayout, multiQueueLayout,
        Layout{"tenant_mix", tenantMixConfig, bench::tenantHorizon}),
    layoutName);

/**
 * Corrupt a machine stopped mid-burst: the next runFor() that crosses
 * the checker's sweep grid must panic naming the broken rule.
 */
class SystemCorruptionDeathTest : public ::testing::TestWithParam<Layout>
{
  protected:
    void
    SetUp() override
    {
        if (!sim::InvariantChecker::compiledIn)
            GTEST_SKIP() << "checker compiled out";
        const harness::ExperimentConfig cfg = GetParam().config();
        sys = std::make_unique<harness::TestSystem>(cfg);
        sys->start();
        sys->runFor(50 * sim::oneUs);
        const auto done = sys->totals().processedPackets;
        ASSERT_GT(done, 0u);
        ASSERT_LT(done, cfg.expectedBurstTotal()) << "not mid-burst";
    }

    std::unique_ptr<harness::TestSystem> sys;
};

TEST_P(SystemCorruptionDeathTest, StaleDirectorySharer)
{
    // The directory claims core 1 holds a line nothing ever touches.
    const sim::Addr line = sys->allocator().allocate(mem::lineSize);
    ASSERT_FALSE(sys->hierarchy().directory().add(1, line).valid);
    EXPECT_DEATH(sys->runFor(100 * sim::oneUs), "its MLC lacks the line");
}

TEST_P(SystemCorruptionDeathTest, SpuriousDoneDescriptor)
{
    // A done bit on the re-armed descriptor software consumed most
    // recently, the one the NIC claims last: a completion nobody
    // wrote. Marking an in-flight descriptor done would not persist
    // until a sweep: its DMA completion makes the state legal again,
    // or software consumes it first and the ring's re-arm assertion
    // fires.
    nic::RxRing &ring = sys->nicPort(0).rxRing(0);
    std::uint32_t idx = ring.swHead();
    do {
        idx = (idx + ring.size() - 1) % ring.size();
    } while (!ring.slot(idx).armed && idx != ring.swHead());
    nic::RxSlot &slot = ring.slot(idx);
    ASSERT_TRUE(slot.armed && !slot.inFlight && !slot.dd)
        << "no re-armed idle descriptor";
    slot.dd = true;
    EXPECT_DEATH(sys->runFor(100 * sim::oneUs),
                 "outside the hw/sw window but busy");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SystemCorruptionDeathTest,
    ::testing::Values(legacyLayout, multiQueueLayout), layoutName);

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
