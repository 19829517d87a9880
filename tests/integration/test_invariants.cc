/**
 * @file
 * System-level conservation and invariant checks after full runs.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace
{

harness::ExperimentConfig
soupConfig(idio::Policy policy, harness::TrafficKind traffic,
           double gbps)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = traffic;
    cfg.rateGbps = gbps;
    cfg.applyPolicy(policy);
    return cfg;
}

class InvariantTest
    : public ::testing::TestWithParam<
          std::tuple<idio::Policy, harness::TrafficKind, double>>
{
};

TEST_P(InvariantTest, ConservationLawsHold)
{
    const auto [policy, traffic, gbps] = GetParam();
    harness::TestSystem sys(soupConfig(policy, traffic, gbps));
    sys.start();
    sys.runFor(20 * sim::oneMs);

    const auto t = sys.totals();

    // Packet conservation: received = dropped + processed + in-flight.
    std::uint64_t inFlight = 0;
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i)
        inFlight += sys.nicPort(i).rxRing().backlog();
    EXPECT_LE(t.processedPackets + t.rxDrops, t.rxPackets);
    EXPECT_GE(t.processedPackets + t.rxDrops + inFlight + 64,
              t.rxPackets);

    // Buffer conservation per pool.
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        auto &pool = sys.mempool(i);
        EXPECT_EQ(pool.allocCount - pool.freeCount,
                  pool.capacity() - pool.available());
    }

    // Every LLC writeback is a DRAM write (dirty evictions are the
    // only DRAM-write source besides direct-DRAM steering).
    EXPECT_EQ(sys.hierarchy().llc().writebacks.get() +
                  sys.hierarchy().directDramWrites.get(),
              sys.hierarchy().dram().writeCount());

    // Structural capacity.
    auto &llcTags = sys.hierarchy().llc().tags();
    EXPECT_LE(sys.hierarchy().llc().occupancy(),
              llcTags.numSets() * llcTags.assoc());

    // Per-core structural checks.
    for (std::uint32_t c = 0; c < sys.hierarchy().numCores(); ++c) {
        const auto &mlc = sys.hierarchy().mlcOf(c).tags();
        for (std::uint32_t set = 0; set < mlc.numSets(); ++set) {
            for (std::uint32_t w = 0; w < mlc.assoc(); ++w) {
                const auto &line = mlc.lineAt(set, w);
                if (!line.valid)
                    continue;
                // Directory tracks every MLC line, owned by its core.
                ASSERT_EQ(sys.hierarchy().directory().ownerOf(line.addr),
                          static_cast<int>(c));
                // Mostly-exclusive LLC.
                ASSERT_FALSE(sys.hierarchy().llc().contains(line.addr));
            }
        }
    }
}

TEST_P(InvariantTest, StatsAreInternallyConsistent)
{
    const auto [policy, traffic, gbps] = GetParam();
    harness::TestSystem sys(soupConfig(policy, traffic, gbps));
    sys.start();
    sys.runFor(20 * sim::oneMs);

    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        auto &nf = sys.nf(i);
        // A latency sample exists for every completed packet.
        EXPECT_LE(nf.latency.count(), nf.packetsProcessed.get());
        // Hits + misses = accesses at every private cache.
        auto &l1 = sys.hierarchy().l1(i);
        EXPECT_EQ(l1.hits.get() + l1.misses.get(),
                  sys.core(i).reads.get() + sys.core(i).writes.get());
    }

    // DMA writes seen by the hierarchy match NIC-side line counts.
    std::uint64_t nicLines = 0;
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        // Recover from the classifier: every received, non-dropped
        // packet produced lines(payload) + 2 descriptor lines.
        auto &port = sys.nicPort(i);
        const auto accepted =
            port.rxPackets.get() - port.rxDrops.get();
        nicLines += accepted * (24 + 2); // 1514 B frames
    }
    // In-flight DMA at cutoff makes the hierarchy count lag slightly.
    EXPECT_LE(sys.hierarchy().pcieWrites.get(), nicLines);
    EXPECT_GE(sys.hierarchy().pcieWrites.get() + 26 * 8, nicLines);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyTrafficMatrix, InvariantTest,
    ::testing::Combine(
        ::testing::Values(idio::Policy::Ddio,
                          idio::Policy::InvalidateOnly,
                          idio::Policy::Static, idio::Policy::Idio),
        ::testing::Values(harness::TrafficKind::Bursty,
                          harness::TrafficKind::Steady),
        ::testing::Values(10.0, 25.0)),
    [](const auto &info) {
        std::string name = idio::policyName(std::get<0>(info.param));
        name += std::get<1>(info.param) ==
                        harness::TrafficKind::Bursty
                    ? "_bursty"
                    : "_steady";
        name += "_";
        name += std::to_string(static_cast<int>(std::get<2>(info.param)));
        name += "G";
        return name;
    });

} // anonymous namespace
