/**
 * @file
 * Traffic generator tests: rates, burst parameterisation, flows.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "gen/traffic.hh"
#include "mem/phys_alloc.hh"
#include "sim/simulation.hh"

namespace
{

class NullTarget : public nic::DmaTarget
{
  public:
    void dmaWrite(sim::Addr, const nic::TlpMeta &) override {}
    sim::Tick dmaRead(sim::Addr) override { return 1; }
};

class TrafficTest : public ::testing::Test
{
  protected:
    TrafficTest()
    {
        nic::NicConfig ncfg;
        ncfg.ringSize = 4096;
        port = std::make_unique<nic::Nic>(s, "nic", ncfg, target, alloc,
                                          0, 1);
        // Arm generously so nothing drops.
        for (std::uint32_t i = 0; i < 4096; ++i)
            port->rxRing().swArm(i, alloc.allocate(2048, 64), i);
    }

    gen::TrafficConfig
    baseConfig()
    {
        gen::TrafficConfig tc;
        tc.frameBytes = 1514;
        tc.flows = gen::makeFlows(4);
        return tc;
    }

    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    std::unique_ptr<nic::Nic> port;
};

TEST_F(TrafficTest, SteadyRateAccuracy)
{
    gen::SteadyTrafficGen gen(s, "gen", *port, baseConfig(), 10.0);
    gen.start();
    s.runFor(10 * sim::oneMs);

    // 10 Gbps of 1514 B frames = 825.6 kpps -> 8256 packets in 10 ms.
    const auto sent = gen.packetsSent.get();
    EXPECT_NEAR(static_cast<double>(sent), 8256.0, 10.0);
    EXPECT_EQ(gen.bytesSent.get(), sent * 1514);
}

TEST_F(TrafficTest, SteadyGapMatchesRate)
{
    gen::SteadyTrafficGen gen(s, "gen", *port, baseConfig(), 100.0);
    // 1514 B at 100 Gbps = 121.12 ns.
    EXPECT_EQ(gen.gap(), sim::nsToTicks(1514 * 8 / 100.0));
}

TEST_F(TrafficTest, BurstyEmitsExactBurstSize)
{
    gen::BurstyTrafficGen::BurstParams bp;
    bp.burstPeriod = 10 * sim::oneMs;
    bp.burstPackets = 1024;
    bp.burstRateGbps = 100.0;
    gen::BurstyTrafficGen gen(s, "gen", *port, baseConfig(), bp);
    gen.start();

    // After the first burst length, exactly 1024 packets.
    s.runFor(2 * sim::oneMs);
    EXPECT_EQ(gen.packetsSent.get(), 1024u);

    // After one full period, the second burst adds another 1024.
    s.runFor(10 * sim::oneMs);
    EXPECT_EQ(gen.packetsSent.get(), 2048u);
}

TEST_F(TrafficTest, BurstLengthFormulaMatchesPaper)
{
    // Paper Sec. VI: 1024 packets of 1514 B at 100 Gbps -> 0.124 ms
    // (the paper rounds to 0.115-0.124 ms depending on framing).
    gen::BurstyTrafficGen::BurstParams bp;
    bp.burstPackets = 1024;
    bp.burstRateGbps = 100.0;
    gen::BurstyTrafficGen gen(s, "gen", *port, baseConfig(), bp);
    const double ms = sim::ticksToSeconds(gen.burstLength()) * 1e3;
    EXPECT_NEAR(ms, 0.124, 0.002);

    bp.burstRateGbps = 10.0;
    gen::BurstyTrafficGen gen10(s, "gen10", *port, baseConfig(), bp);
    EXPECT_NEAR(sim::ticksToSeconds(gen10.burstLength()) * 1e3, 1.24,
                0.02);
}

TEST_F(TrafficTest, PoissonMeanRate)
{
    gen::PoissonTrafficGen gen(s, "gen", *port, baseConfig(), 10.0);
    gen.start();
    s.runFor(20 * sim::oneMs);
    // Expect ~16512 packets; Poisson sd ~128, allow 5 sigma.
    EXPECT_NEAR(static_cast<double>(gen.packetsSent.get()), 16512.0,
                700.0);
}

TEST_F(TrafficTest, RoundRobinFlowSelection)
{
    auto tc = baseConfig();
    tc.flows = gen::makeFlows(3);
    gen::SteadyTrafficGen gen(s, "gen", *port, tc, 10.0);
    gen.start();
    s.runFor(sim::oneMs);
    // Packet count is a multiple-ish of 3; flows rotate evenly. We
    // verify via the NIC ring contents: consecutive slots carry
    // consecutive flow source ports.
    const auto &ring = port->rxRing();
    ASSERT_GT(port->rxPackets.get(), 6u);
    const auto p0 = ring.slot(0).pkt.flow.srcPort;
    const auto p1 = ring.slot(1).pkt.flow.srcPort;
    const auto p2 = ring.slot(2).pkt.flow.srcPort;
    const auto p3 = ring.slot(3).pkt.flow.srcPort;
    EXPECT_NE(p0, p1);
    EXPECT_NE(p1, p2);
    EXPECT_EQ(p0, p3); // wraps after 3 flows
}

TEST_F(TrafficTest, StopAtCeasesGeneration)
{
    auto tc = baseConfig();
    tc.stopAt = sim::oneMs;
    gen::SteadyTrafficGen gen(s, "gen", *port, tc, 10.0);
    gen.start();
    s.runFor(10 * sim::oneMs);
    // ~825 packets in the first ms, nothing afterwards.
    EXPECT_NEAR(static_cast<double>(gen.packetsSent.get()), 825.0,
                5.0);
}

TEST_F(TrafficTest, MakeFlowsDistinct)
{
    const auto flows = gen::makeFlows(8, 6000, 40);
    EXPECT_EQ(flows.size(), 8u);
    for (std::size_t i = 0; i < flows.size(); ++i) {
        EXPECT_EQ(flows[i].dscp, 40);
        for (std::size_t j = i + 1; j < flows.size(); ++j)
            EXPECT_FALSE(flows[i].tuple == flows[j].tuple);
    }
}

TEST(TrafficDeath, EmptyFlowListIsFatal)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port(s, "nic", {}, target, alloc, 0, 1);
    gen::TrafficConfig tc; // no flows
    EXPECT_EXIT(gen::SteadyTrafficGen(s, "gen", port, tc, 10.0),
                ::testing::ExitedWithCode(1), "no flows");
}

TEST(TrafficDeath, NonPositiveOrNanRateIsFatal)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port(s, "nic", {}, target, alloc, 0, 1);
    gen::TrafficConfig tc;
    tc.flows = gen::makeFlows(1);
    EXPECT_EXIT(gen::SteadyTrafficGen(s, "steady", port, tc, 0.0),
                ::testing::ExitedWithCode(1),
                "'steady' needs a positive rate, got 0 Gbps");
    gen::BurstyTrafficGen::BurstParams bp;
    bp.burstRateGbps = -5.0;
    EXPECT_EXIT(gen::BurstyTrafficGen(s, "bursty", port, tc, bp),
                ::testing::ExitedWithCode(1),
                "'bursty' needs a positive rate, got -5 Gbps");
    EXPECT_EXIT(gen::PoissonTrafficGen(s, "poisson", port, tc,
                                       std::nan("")),
                ::testing::ExitedWithCode(1),
                "'poisson' needs a positive rate, got -?nan Gbps");
}

} // anonymous namespace
