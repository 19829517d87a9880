/**
 * @file
 * Split-link (modelled interconnect latency) integration gates.
 *
 * With LinkLatencyConfig set, the system decomposes into per-core,
 * NIC and uncore timing domains joined only by latency edges, and the
 * executor runs them under the conservative-window protocol. The
 * gates here: a split run processes traffic end to end, is
 * byte-identical — Totals, stats-registry JSON and packet-lifecycle
 * trace — across shard-job counts, uses the minimum link latency as
 * its window, and checkpoints mid-burst with messages in flight on
 * the links.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/system.hh"
#include "harness/trace_artifacts.hh"
#include "stats/json.hh"
#include "trace/chrome_export.hh"

namespace
{

constexpr sim::Tick quantum = 10 * sim::oneUs;

/** An 8-core, 8-RX-queue port with modelled PCIe and mesh latencies. */
harness::ExperimentConfig
splitConfig(std::uint32_t cores = 8, std::uint64_t flows = 1024)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = cores;
    cfg.rxQueues = cores;
    cfg.totalFlows = flows;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst
    cfg.nic.ringSize = 256;
    cfg.links.pcieNs = 500.0;
    cfg.links.meshNs = 250.0;
    cfg.applyPolicy(idio::Policy::Idio);
    return cfg;
}

std::string
statsJson(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return os.str();
}

struct RunArtifacts
{
    harness::Totals totals;
    std::string stats;
    std::string trace;
};

RunArtifacts
runTraced(const harness::ExperimentConfig &cfg, const std::string &tag)
{
    harness::TestSystem sys(cfg);
    harness::enableTracing(sys, 1u << 14);
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const std::string path =
        ::testing::TempDir() + "/split_" + tag + "_trace.json";
    EXPECT_TRUE(trace::writeChromeTrace(path,
                                        sys.simulation().tracer()));
    std::ifstream in(path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes.empty());
    return {sys.totals(), statsJson(sys), std::move(bytes)};
}

TEST(SplitLinks, BurstIsFullyProcessedAcrossDomains)
{
    const auto cfg = splitConfig();
    harness::TestSystem sys(cfg);
    ASSERT_NE(sys.splitFabric(), nullptr);
    ASSERT_NE(sys.shardExecutor(), nullptr);
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const auto t = sys.totals();
    EXPECT_EQ(t.rxPackets, cfg.expectedBurstTotal());
    EXPECT_EQ(t.rxDrops, 0u);
    EXPECT_EQ(t.processedPackets, t.rxPackets);
    EXPECT_GT(sys.shardExecutor()->windowsRun(), 0u);
}

TEST(SplitLinks, RunIsByteIdenticalAcrossJobCounts)
{
    // The acceptance gate: the same split machine produces the same
    // stats JSON and trace bytes whether the executor runs its domains
    // on 1 worker, 2 or 4.
    const auto base = splitConfig();

    const auto j1 = runTraced(base, "j1");

    auto jobs = base;
    jobs.shardJobs = 2;
    const auto j2 = runTraced(jobs, "j2");

    jobs.shardJobs = 4;
    const auto j4 = runTraced(jobs, "j4");

    EXPECT_EQ(j2.totals, j1.totals);
    EXPECT_EQ(j2.stats, j1.stats);
    EXPECT_EQ(j2.trace, j1.trace);
    EXPECT_EQ(j4.totals, j1.totals);
    EXPECT_EQ(j4.stats, j1.stats);
    EXPECT_EQ(j4.trace, j1.trace);
}

TEST(SplitLinks, ExecutorWindowIsMinLinkLatency)
{
    // Every core, the NIC and the uncore are separate domains, and
    // the conservative window is the shorter of the two link
    // latencies, whichever one that is.
    for (const auto &[pcieNs, meshNs] :
         {std::pair{500.0, 250.0}, std::pair{300.0, 700.0}}) {
        auto cfg = splitConfig(4);
        cfg.links.pcieNs = pcieNs;
        cfg.links.meshNs = meshNs;
        harness::TestSystem sys(cfg);
        ASSERT_NE(sys.shardExecutor(), nullptr);
        EXPECT_EQ(sys.shardExecutor()->domains(), cfg.numNfs + 2);
        EXPECT_EQ(sys.shardExecutor()->window(),
                  sim::nsToTicks(std::min(pcieNs, meshNs)));
    }
}

TEST(SplitLinks, LatencyChangesTimingButNotDelivery)
{
    // The links are real model latency, not bookkeeping: doubling
    // them must still deliver and process the whole burst, but the
    // run is not byte-identical to the faster fabric.
    const auto fast = splitConfig();
    auto slow = fast;
    slow.links.pcieNs = 2000.0;
    slow.links.meshNs = 1000.0;

    const auto a = runTraced(fast, "fast");
    const auto b = runTraced(slow, "slow");
    EXPECT_EQ(a.totals.rxPackets, b.totals.rxPackets);
    EXPECT_EQ(a.totals.processedPackets, b.totals.processedPackets);
    EXPECT_NE(a.trace, b.trace);
}

TEST(SplitLinks, CkptRoundTripMidBurstIsIdentical)
{
    // Checkpoint with DMA writes, fills and descriptor messages in
    // flight on the links; restore into a fresh build and run both
    // out.
    const auto cfg = splitConfig();
    constexpr sim::Tick ckptTick = 1 * quantum; // inside the burst
    constexpr sim::Tick endTick = 20 * quantum;

    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    ASSERT_FALSE(blob.empty());
    const harness::Totals atCkpt = cold.totals();
    EXPECT_LT(atCkpt.rxPackets, cfg.expectedBurstTotal())
        << "checkpoint was meant to land mid-burst";
    cold.runFor(endTick - ckptTick);

    harness::TestSystem warm(cfg);
    warm.start();
    warm.restore(blob);
    EXPECT_EQ(warm.simulation().now(), ckptTick);
    EXPECT_EQ(warm.totals(), atCkpt);
    warm.runFor(endTick - ckptTick);

    EXPECT_EQ(warm.totals(), cold.totals());
    EXPECT_EQ(statsJson(warm), statsJson(cold));
}

TEST(SplitLinksDeathTest, LegacyLayoutIsRejected)
{
    auto cfg = splitConfig();
    cfg.rxQueues = 0; // legacy per-NF-port shape
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "multi-queue");
}

TEST(SplitLinksDeathTest, HalfConfiguredLinksAreRejected)
{
    // split() triggers on either latency; validation demands both, so
    // no coupling is silently left synchronous.
    auto cfg = splitConfig();
    cfg.links.meshNs = 0.0;
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "link latencies");
}

TEST(SplitLinksDeathTest, TransmittingNfIsRejected)
{
    auto cfg = splitConfig();
    cfg.nfKind = harness::NfKind::L2Fwd;
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "outbound DMA");
}

} // anonymous namespace
