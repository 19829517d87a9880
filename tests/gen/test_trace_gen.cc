/**
 * @file
 * Trace-replay generator tests.
 */

#include <gtest/gtest.h>

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

class TraceGenTest : public ::testing::Test
{
  protected:
    TraceGenTest()
    {
        nic::NicConfig ncfg;
        ncfg.ringSize = 1024;
        port = std::make_unique<nic::Nic>(s, "nic", ncfg, target,
                                          alloc, 0);
        for (std::uint32_t i = 0; i < 1024; ++i)
            port->rxRing().swArm(i, alloc.allocate(2048, 64), i);
    }

    static net::TraceRecord
    rec(sim::Tick when, std::uint16_t srcPort,
        std::uint32_t bytes = 1514)
    {
        net::TraceRecord r;
        r.when = when;
        r.pkt.flow.srcIp = 1;
        r.pkt.flow.dstIp = 2;
        r.pkt.flow.srcPort = srcPort;
        r.pkt.flow.dstPort = 5000;
        r.pkt.frameBytes = bytes;
        return r;
    }

    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    std::unique_ptr<nic::Nic> port;
};

TEST_F(TraceGenTest, ReplaysAtRecordedOffsets)
{
    std::vector<net::TraceRecord> trace = {
        rec(100 * sim::oneUs, 1),
        rec(150 * sim::oneUs, 2),
        rec(400 * sim::oneUs, 3),
    };
    gen::TraceTrafficGen gen(s, "trace", *port, trace);
    gen.start();

    // Offsets normalise to 0, 50 us, 300 us.
    s.runFor(40 * sim::oneUs);
    EXPECT_EQ(gen.packetsSent.get(), 1u) << "offsets are normalised "
                                            "to the first record";
    s.runFor(20 * sim::oneUs);
    EXPECT_EQ(gen.packetsSent.get(), 2u);
    s.runFor(sim::oneMs);
    EXPECT_EQ(gen.packetsSent.get(), 3u);
}

TEST_F(TraceGenTest, PreservesFlowIdentityAndSize)
{
    std::vector<net::TraceRecord> trace = {rec(0, 77, 1024)};
    gen::TraceTrafficGen gen(s, "trace", *port, trace);
    gen.start();
    s.runFor(sim::oneMs);

    EXPECT_EQ(port->rxRing().slot(0).pkt.flow.srcPort, 77);
    EXPECT_EQ(port->rxRing().slot(0).pkt.frameBytes, 1024u);
}

TEST_F(TraceGenTest, LoopRepeatsTrace)
{
    std::vector<net::TraceRecord> trace = {
        rec(0, 1),
        rec(10 * sim::oneUs, 2),
    };
    gen::TraceTrafficGen gen(s, "trace", *port, trace, /*loop=*/true,
                             /*loopGap=*/100 * sim::oneUs);
    gen.start();
    s.runFor(sim::oneMs);
    EXPECT_GT(gen.packetsSent.get(), 10u);
}

TEST_F(TraceGenTest, NonLoopingStopsAtEnd)
{
    std::vector<net::TraceRecord> trace = {rec(0, 1), rec(10, 2)};
    gen::TraceTrafficGen gen(s, "trace", *port, trace);
    gen.start();
    s.runFor(10 * sim::oneMs);
    EXPECT_EQ(gen.packetsSent.get(), 2u);
    EXPECT_EQ(gen.traceLength(), 2u);
}

TEST_F(TraceGenTest, WorksWithPcapRoundTrip)
{
    // Write a capture, read it back, replay it.
    const std::string path = ::testing::TempDir() +
                             "idio_trace_gen_roundtrip.pcap";
    {
        net::PcapWriter w(path);
        for (int i = 0; i < 20; ++i) {
            auto r = rec(sim::Tick(i) * 50 * sim::oneUs,
                         std::uint16_t(100 + i));
            w.record(r.when, r.pkt);
        }
    }
    auto trace = net::PcapReader::readAll(path);
    std::remove(path.c_str());
    ASSERT_EQ(trace.size(), 20u);

    gen::TraceTrafficGen gen(s, "trace", *port, trace);
    gen.start();
    s.runFor(2 * sim::oneMs);
    EXPECT_EQ(gen.packetsSent.get(), 20u);
    EXPECT_EQ(port->rxPackets.get(), 20u);
}

TEST(TraceGenDeath, EmptyTraceIsFatal)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port(s, "nic", {}, target, alloc, 0);
    EXPECT_EXIT(gen::TraceTrafficGen(s, "t", port, {}),
                ::testing::ExitedWithCode(1), "empty trace");
}

} // anonymous namespace
