/**
 * @file
 * Network function behaviour tests, run on full TestSystems.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace
{

harness::ExperimentConfig
baseConfig(harness::NfKind kind, idio::Policy policy)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 1;
    cfg.nfKind = kind;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 5.0;
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(policy);
    return cfg;
}

TEST(TouchDrop, ProcessesEveryPacketWithoutDrops)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::TouchDrop, idio::Policy::Ddio));
    sys.start();
    sys.runFor(5 * sim::oneMs);

    const auto t = sys.totals();
    EXPECT_GT(t.rxPackets, 2000u);
    EXPECT_EQ(t.rxDrops, 0u);
    // All but the most recent in-flight packets are processed.
    EXPECT_GE(t.processedPackets, t.rxPackets - 64);
}

TEST(TouchDrop, TouchesEveryPayloadLine)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::TouchDrop, idio::Policy::Ddio));
    sys.start();
    sys.runFor(2 * sim::oneMs);

    // 24 lines per 1514 B packet, plus descriptor/mbuf overhead.
    const auto pkts = sys.nf(0).packetsProcessed.get();
    EXPECT_GE(sys.core(0).reads.get(), pkts * 24);
}

TEST(TouchDrop, RecordsLatencySamples)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::TouchDrop, idio::Policy::Ddio));
    sys.start();
    sys.runFor(2 * sim::oneMs);

    auto &lat = sys.nf(0).latency;
    EXPECT_EQ(lat.count(), sys.nf(0).packetsProcessed.get());
    EXPECT_GT(lat.p50(), 0u);
    EXPECT_GE(lat.p99(), lat.p50());
}

TEST(TouchDrop, SelfInvalidationSkipsWritebacks)
{
    // The phenomenon needs a ring whose buffers exceed the MLC
    // (paper Fig. 4: rings above ~692 MTU buffers overflow 1 MB).
    auto ddio = baseConfig(harness::NfKind::TouchDrop,
                           idio::Policy::Ddio);
    ddio.nic.ringSize = 1024;
    auto inval = baseConfig(harness::NfKind::TouchDrop,
                            idio::Policy::InvalidateOnly);
    inval.nic.ringSize = 1024;

    harness::TestSystem a(ddio), b(inval);
    a.start();
    b.start();
    a.runFor(5 * sim::oneMs);
    b.runFor(5 * sim::oneMs);

    EXPECT_GT(a.totals().mlcWritebacks, 1000u);
    EXPECT_LT(b.totals().mlcWritebacks,
              a.totals().mlcWritebacks / 10);
    EXPECT_GT(b.hierarchy().mlcOf(0).selfInvals.get(), 1000u);
}

TEST(TouchDrop, MempoolConservation)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::TouchDrop, idio::Policy::Idio));
    sys.start();
    sys.runFor(5 * sim::oneMs);

    auto &pool = sys.mempool(0);
    // Every buffer is armed in the ring, pending in a batch, or free:
    // allocations and frees must balance to ring occupancy.
    EXPECT_EQ(pool.allocCount - pool.freeCount,
              pool.capacity() - pool.available());
    EXPECT_EQ(pool.allocFailures, 0u);
}

TEST(L2Fwd, ForwardsEveryPacket)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::L2Fwd, idio::Policy::Ddio));
    sys.start();
    sys.runFor(5 * sim::oneMs);

    const auto &nicStats = sys.nicPort(0);
    EXPECT_GT(nicStats.txPackets.get(), 2000u);
    // Zero-copy: everything received is eventually transmitted.
    EXPECT_GE(nicStats.txPackets.get() + 64,
              sys.nf(0).packetsProcessed.get());
    EXPECT_EQ(nicStats.rxDrops.get(), 0u);
}

TEST(L2Fwd, TouchesOnlyHeaders)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::L2Fwd, idio::Policy::Ddio));
    sys.start();
    sys.runFor(2 * sim::oneMs);

    // Header-only processing: aside from the idle-poll descriptor
    // checks, far fewer reads than TouchDrop's 24 payload lines per
    // packet (descriptors + header + free-list only).
    const auto pkts = sys.nf(0).packetsProcessed.get();
    const auto pollReads = sys.nf(0).emptyPolls.get();
    EXPECT_LT(sys.core(0).reads.get() - pollReads, pkts * 10);
}

TEST(L2Fwd, PcieReadsPullBuffersOut)
{
    harness::TestSystem sys(
        baseConfig(harness::NfKind::L2Fwd, idio::Policy::Ddio));
    sys.start();
    sys.runFor(2 * sim::oneMs);
    // TX of 1514 B frames reads 24 lines per packet.
    EXPECT_GE(sys.hierarchy().pcieReads.get(),
              sys.nicPort(0).txPackets.get() * 24);
}

TEST(L2FwdDropPayload, TransmitsHeaderOnly)
{
    harness::TestSystem sys(baseConfig(
        harness::NfKind::L2FwdDropPayload, idio::Policy::Ddio));
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const auto tx = sys.nicPort(0).txPackets.get();
    EXPECT_GT(tx, 500u);
    // One PCIe read per forwarded header cacheline.
    EXPECT_LE(sys.hierarchy().pcieReads.get(), tx + 32);
}

TEST(L2FwdDropPayload, Class1PayloadGoesToDramUnderIdio)
{
    harness::TestSystem sys(baseConfig(
        harness::NfKind::L2FwdDropPayload, idio::Policy::Idio));
    sys.start();
    sys.runFor(2 * sim::oneMs);

    // The builder marks this workload's flows DSCP 40 (class 1); the
    // controller must steer payload lines straight to DRAM.
    EXPECT_GT(sys.hierarchy().directDramWrites.get(), 1000u);
    EXPECT_GT(sys.controller().directDramSteers.get(), 1000u);
}

TEST(NetworkFunction, BatchingRespectsConfiguredBurst)
{
    // A 100 Gbps burst arrives faster than TouchDrop consumes it, so
    // the ring backs up far past the PMD's burst: the burst limit,
    // not the arrival rate, bounds the polls. Were the limit ignored,
    // the growing backlog would be drained in a handful of polls.
    auto cfg = baseConfig(harness::NfKind::TouchDrop,
                          idio::Policy::Ddio);
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.nic.ringSize = 1024; // a 1024-packet burst
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(5 * sim::oneMs);

    const std::uint64_t burst = dpdk::RxQueue::burst;
    const auto batches = sys.nf(0).batches.get();
    const auto pkts = sys.nf(0).packetsProcessed.get();
    EXPECT_LE(pkts, batches * burst) << "no batch may exceed the limit";
    EXPECT_GE(pkts * 10, batches * burst * 9)
        << "the limit binds: nearly every batch is full";
    EXPECT_EQ(sys.totals().rxDrops, 0u);
    EXPECT_EQ(pkts, 1024u) << "the whole burst is processed";
}

} // anonymous namespace
