/**
 * @file
 * Multi-queue RX integration gates.
 *
 * RSS steering is deterministic (same flow population + seed →
 * identical per-queue packet assignment across runs and across sweep
 * --jobs values), a many-core burst is fully processed, and a
 * multi-queue config checkpoint/restores mid-burst.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/system.hh"
#include "stats/json.hh"

namespace
{

constexpr sim::Tick quantum = 10 * sim::oneUs;

/** An 8-core, 8-RX-queue port with a synthetic flow population. */
harness::ExperimentConfig
mqConfig(std::uint32_t cores = 8, std::uint64_t flows = 1024)
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

std::vector<std::uint64_t>
perQueueRx(harness::TestSystem &sys)
{
    auto &nic = sys.nicPort(0);
    std::vector<std::uint64_t> rx;
    for (std::uint32_t q = 0; q < nic.numQueues(); ++q)
        rx.push_back(nic.queueRxPackets(q));
    return rx;
}

TEST(MultiQueue, BurstIsFullyProcessedAcrossQueues)
{
    const auto cfg = mqConfig();
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const auto t = sys.totals();
    EXPECT_EQ(t.rxPackets, cfg.expectedBurstTotal());
    EXPECT_EQ(t.rxDrops, 0u);
    EXPECT_EQ(t.processedPackets, t.rxPackets);
}

TEST(MultiQueue, RssSpreadsFlowsAcrossEveryQueue)
{
    // 1024 synthetic flows over 8 queues: the splitmix-derived tuples
    // must land packets on every ring (an empty queue would mean the
    // RETA or the hash is degenerate).
    harness::TestSystem sys(mqConfig());
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const auto rx = perQueueRx(sys);
    ASSERT_EQ(rx.size(), 8u);
    std::uint64_t total = 0;
    for (std::size_t q = 0; q < rx.size(); ++q) {
        EXPECT_GT(rx[q], 0u) << "queue " << q << " never saw a packet";
        total += rx[q];
    }
    EXPECT_EQ(total, sys.totals().rxPackets);
}

TEST(MultiQueue, SteeringIsIdenticalAcrossRuns)
{
    // Same flow set + seed → bit-identical per-queue assignment.
    auto run = [] {
        harness::TestSystem sys(mqConfig());
        sys.start();
        sys.runFor(2 * sim::oneMs);
        return std::make_pair(perQueueRx(sys), sys.totals());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(MultiQueue, SweepIsIdenticalAcrossJobCounts)
{
    // The --jobs half of the steering-determinism gate: per-queue
    // counts from a parallel sweep match the serial sweep per config.
    // The hardware clamp is disabled so the pool is real even on a
    // single-CPU host.
    std::vector<harness::ExperimentConfig> configs;
    for (std::uint64_t flows : {64u, 1024u, 4096u})
        configs.push_back(mqConfig(8, flows));

    auto runOne = [](const harness::ExperimentConfig &cfg) {
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(2 * sim::oneMs);
        return perQueueRx(sys);
    };

    harness::SweepRunner serial(1);
    harness::SweepRunner parallel(4);
    harness::SweepRunnerTestAccess::disableHardwareClamp(parallel);
    const auto a = serial.map(configs, runOne);
    const auto b = parallel.map(configs, runOne);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "config " << i << " diverged";
}

TEST(MultiQueue, CkptRoundTripMidBurstIsIdentical)
{
    // Checkpoint a multi-queue system mid-burst, restore into a fresh
    // build, run both out: Totals, stats JSON and per-queue counters
    // must match the uninterrupted run.
    const auto cfg = mqConfig();
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
    EXPECT_EQ(perQueueRx(warm), perQueueRx(cold));
}

TEST(MultiQueue, QueueCountMismatchOnRestoreIsFatal)
{
    const auto cfg = mqConfig();
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(quantum);
    const auto blob = sys.checkpoint();

    auto other = mqConfig(4);
    other.seed = cfg.seed;
    harness::TestSystem victim(other);
    victim.start();
    EXPECT_EXIT(victim.restore(blob), ::testing::ExitedWithCode(1),
                "");
}

} // anonymous namespace
