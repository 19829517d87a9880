/**
 * @file
 * Pinned work counters: exact, host-independent numbers of three
 * canonical runs.
 *
 * Each case runs the benches' own loop (bench::runLoop, to the drain
 * or the horizon, no settle time) and asserts the exact events run
 * (logical steps), the wheel dispatches they took and, for the tenant
 * mix, the exact per-tenant tail latencies in ticks. The constants are the
 * values the simulator produced when these gates moved here from the
 * perf smoke's committed trajectory file, in release and checker-on
 * builds alike: the invariant checker and the tracer must not change
 * the run, so every build tree (default, release, asan, tsan) must
 * reproduce them bit for bit.
 *
 * A change that moves one of them on purpose updates the constant
 * and names the change, with old and new value, in CHANGES.md. An
 * unexplained move is a behaviour change.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ckpt/serializer.hh"
#include "common.hh"
#include "stats/json.hh"
#include "tenant_scenario.hh"

namespace
{

/** What one drained single-burst run did. */
struct BurstWork
{
    std::uint64_t packets = 0;
    std::uint64_t steps = 0;  ///< events run
    std::uint64_t events = 0; ///< wheel dispatches
    std::uint64_t outputDigest = 0; ///< FNV-1a of stats JSON + totals
};

/**
 * FNV-1a 64 of the whole stats registry as JSON plus the Totals, the
 * bytes every figure is computed from.
 */
std::uint64_t
outputDigest(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    const harness::Totals t = sys.totals();
    os << "\ntotals " << t.mlcWritebacks << ' ' << t.nfMlcWritebacks << ' '
       << t.mlcPcieInvals << ' ' << t.llcWritebacks << ' ' << t.dramReads
       << ' ' << t.dramWrites << ' ' << t.rxPackets << ' ' << t.rxDrops
       << ' ' << t.processedPackets << '\n';
    const std::string bytes = os.str();
    return ckpt::fnv1a(bytes.data(), bytes.size());
}

/** Run one burst of @p config until drained. */
BurstWork
drainOneBurst(const harness::ExperimentConfig &config)
{
    harness::TestSystem sys(bench::singleBurst(config));
    sys.start();
    bench::runLoop(sys, {.drainPackets =
                             sys.config().expectedBurstTotal()});
    return {sys.totals().processedPackets,
            sys.simulation().totalLogicalSteps(),
            sys.simulation().totalProcessedEvents(), outputDigest(sys)};
}

TEST(PinnedWork, SingleBurst)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.seed = 1;
    cfg.applyPolicy(idio::Policy::Idio);

    const BurstWork w = drainOneBurst(cfg);
    EXPECT_EQ(w.packets, 2048u);
    EXPECT_EQ(w.steps, 107250u);
    EXPECT_EQ(w.events, 12678u);
}

TEST(PinnedWork, Scaled32)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.burstPackets = 8192;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(idio::Policy::Idio);

    const BurstWork w = drainOneBurst(cfg);
    EXPECT_EQ(w.packets, 8192u);
    EXPECT_EQ(w.steps, 493517u);
    EXPECT_EQ(w.events, 97931u);
    // The 32-queue machine's every statistic, byte for byte.
    EXPECT_EQ(w.outputDigest, 0x398de66320338a68ull);
}

TEST(PinnedWork, Scaled32CacheStateBytes)
{
    // The cache layer's host footprint on the 32-core machine: one
    // block per set in every tag array plus its free-way masks. The
    // earlier three-array layout (24-byte line structs, tags and
    // 64-bit LRU stamps) held 86769664 bytes here, and blocks of
    // 64-bit address tags with a 64-bit directory sharer word per way
    // held 30670848; 32-bit line-number tags and a one-byte directory
    // owner hold 16646144.
    harness::ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.applyPolicy(idio::Policy::Idio);
    harness::TestSystem sys(cfg);
    EXPECT_EQ(sys.hierarchy().stateBytes(), 16646144u);
}

/**
 * Run the canonical tenant mix under @p scheme for 300 us and check
 * its rpc p99/p99.9 and batch p99 (ticks) and the IOCA controller's
 * way reallocations.
 */
void
expectTenantHeadlines(const bench::TenantScheme &scheme,
                      sim::Tick rpcP99, sim::Tick rpcP999,
                      sim::Tick batchP99, std::uint64_t reallocations)
{
    auto cfg = bench::tenantMixConfig(scheme);
    cfg.nic.ringSize = 256;
    harness::TestSystem sys(cfg);
    sys.start();
    bench::runLoop(sys, {.horizon = 300 * sim::oneUs});

    const auto tt = sys.tenantTotals();
    ASSERT_GE(tt.size(), 2u);
    EXPECT_EQ(tt[0].p99, rpcP99);
    EXPECT_EQ(tt[0].p999, rpcP999);
    EXPECT_EQ(tt[1].p99, batchP99);
    const auto *ioca = sys.iocaController();
    EXPECT_EQ(ioca ? ioca->reallocations.get() : 0, reallocations);
}

TEST(PinnedWork, TenantHeadlinesDdio)
{
    const auto &ddio = bench::tenantSchemes[0];
    ASSERT_STREQ(ddio.label, "ddio");
    expectTenantHeadlines(ddio, 2'422'552, 2'517'918, 271'771'260, 0);
}

TEST(PinnedWork, TenantHeadlinesIoca)
{
    const auto &ioca = bench::tenantSchemes[2];
    ASSERT_STREQ(ioca.label, "ioca");
    expectTenantHeadlines(ioca, 2'419'912, 2'529'193, 271'781'604, 6);
}

} // anonymous namespace
