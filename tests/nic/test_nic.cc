/**
 * @file
 * NIC top-level tests: RX DMA streams, descriptor writeback, drops,
 * TX reads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mem/phys_alloc.hh"
#include "nic/nic.hh"
#include "sim/simulation.hh"

namespace
{

class CountingTarget : public nic::DmaTarget
{
  public:
    void
    dmaWrite(sim::Addr addr, const nic::TlpMeta &meta) override
    {
        writes.push_back({addr, meta});
    }

    sim::Tick
    dmaRead(sim::Addr addr) override
    {
        reads.push_back(addr);
        return 10;
    }

    struct W
    {
        sim::Addr addr;
        nic::TlpMeta meta;
    };
    std::vector<W> writes;
    std::vector<sim::Addr> reads;
};

class NicTest : public ::testing::Test
{
  protected:
    NicTest()
    {
        nic::NicConfig cfg;
        cfg.ringSize = 32;
        port = std::make_unique<nic::Nic>(s, "nic", cfg, target, alloc,
                                          0, 1);
        port->start();
        // Arm the ring like a driver would.
        for (std::uint32_t i = 0; i < 32; ++i) {
            bufs.push_back(alloc.allocate(2048, 64));
            port->rxRing().swArm(i, bufs.back(), i);
        }
    }

    net::Packet
    packet(std::uint32_t bytes = 1514, std::uint8_t dscp = 0)
    {
        net::Packet p;
        p.flow.srcIp = 0x0a000001;
        p.flow.dstIp = 0x0a000002;
        p.flow.srcPort = 1000;
        p.flow.dstPort = 5000;
        p.frameBytes = bytes;
        p.dscp = dscp;
        return p;
    }

    sim::Simulation s;
    CountingTarget target;
    mem::PhysAllocator alloc;
    std::unique_ptr<nic::Nic> port;
    std::vector<sim::Addr> bufs;
};

TEST(NicDeath, RingBelowMinimumIsFatal)
{
    sim::Simulation s;
    CountingTarget target;
    mem::PhysAllocator alloc;
    nic::NicConfig cfg;
    cfg.ringSize = 4;
    EXPECT_EXIT(nic::Nic(s, "port", cfg, target, alloc, 0, 1),
                ::testing::ExitedWithCode(1),
                "NIC 'port' ring size 4 is below the minimum of 8");
}

constexpr double inf = std::numeric_limits<double>::infinity();

TEST(NicDeath, BadPcieBandwidthIsFatal)
{
    for (const double gbps : {0.0, -4.0, std::nan(""), inf}) {
        sim::Simulation s;
        CountingTarget target;
        mem::PhysAllocator alloc;
        nic::NicConfig cfg;
        cfg.pcieGBps = gbps;
        EXPECT_EXIT(nic::Nic(s, "port", cfg, target, alloc, 0, 1),
                    ::testing::ExitedWithCode(1),
                    "NIC 'port' PCIe bandwidth .* GB/s must be positive "
                    "and finite")
            << gbps;
    }
}

TEST_F(NicTest, DeliversPayloadLinesPlusDescriptor)
{
    port->deliver(packet(1514)); // 24 payload lines + 2 desc lines
    s.runFor(10 * sim::oneUs);

    ASSERT_EQ(target.writes.size(), 26u);
    // Payload lines target the armed buffer, in order.
    for (int i = 0; i < 24; ++i)
        EXPECT_EQ(target.writes[i].addr, bufs[0] + i * 64u);
    // Descriptor lines follow.
    EXPECT_EQ(target.writes[24].addr, port->rxRing().descAddr(0));
    EXPECT_EQ(target.writes[25].addr,
              port->rxRing().descAddr(0) + 64);
}

TEST_F(NicTest, FirstLineMarkedHeader)
{
    port->deliver(packet(1514));
    s.runFor(10 * sim::oneUs);
    EXPECT_TRUE(target.writes[0].meta.isHeader);
    for (std::size_t i = 1; i < 24; ++i)
        EXPECT_FALSE(target.writes[i].meta.isHeader);
}

TEST_F(NicTest, DescriptorWritesAreAlwaysClass0)
{
    port->deliver(packet(1514, /*dscp=*/40)); // class-1 packet
    s.runFor(10 * sim::oneUs);
    ASSERT_EQ(target.writes.size(), 26u);
    EXPECT_EQ(target.writes[1].meta.appClass, 1) << "payload class 1";
    EXPECT_EQ(target.writes[24].meta.appClass, 0)
        << "descriptors stay on the DDIO path";
    EXPECT_EQ(target.writes[25].meta.appClass, 0);
}

TEST_F(NicTest, DdBitSetAfterDescriptorWriteback)
{
    port->deliver(packet());
    EXPECT_FALSE(port->rxRing().swReady());
    s.runFor(10 * sim::oneUs);
    EXPECT_TRUE(port->rxRing().swReady());
}

TEST_F(NicTest, DescriptorWritebackDelayed)
{
    port->deliver(packet());
    // Payload lines finish within ~24 * 2 ns; the descriptor write
    // waits the 1500 ns batching delay on top.
    ASSERT_EQ(nic::Nic::descWbDelayNs, 1500.0);
    s.runFor(sim::nsToTicks(1500.0));
    EXPECT_EQ(target.writes.size(), 24u);
    EXPECT_FALSE(port->rxRing().swReady());
    s.runFor(sim::nsToTicks(100.0));
    EXPECT_EQ(target.writes.size(), 26u);
    s.runFor(10 * sim::oneUs);
    EXPECT_TRUE(port->rxRing().swReady());
}

TEST_F(NicTest, DropsWhenRingExhausted)
{
    for (int i = 0; i < 40; ++i)
        port->deliver(packet());
    s.runFor(100 * sim::oneUs);

    EXPECT_EQ(port->rxPackets.get(), 40u);
    EXPECT_EQ(port->rxDrops.get(), 8u);
    EXPECT_EQ(port->rxRing().backlog(), 32u);
}

TEST_F(NicTest, RingFullDropIsNotClassified)
{
    // The steering decision runs before the ring-full check, but only
    // a packet that gets a ring slot reaches the classifier.
    for (int i = 0; i < 32; ++i)
        port->deliver(packet());
    EXPECT_EQ(port->classifier().packetsClassified.get(), 32u);
    const std::uint32_t before = port->classifier().burstCounter(0);

    port->deliver(packet());
    EXPECT_EQ(port->rxDrops.get(), 1u);
    EXPECT_EQ(port->classifier().packetsClassified.get(), 32u);
    EXPECT_EQ(port->classifier().burstCounter(0), before);
}

TEST_F(NicTest, SmallPacketSingleLine)
{
    port->deliver(packet(64));
    s.runFor(10 * sim::oneUs);
    EXPECT_EQ(target.writes.size(), 3u); // 1 payload + 2 descriptor
}

TEST_F(NicTest, TransmitReadsEveryLine)
{
    bool done = false;
    const std::uint32_t txDone = port->dmaEngine().registerHandler(
        "txDone", [&](const nic::DmaArgs &) { done = true; });
    port->transmit(bufs[5], 1514, txDone, {});
    s.runFor(10 * sim::oneUs);

    EXPECT_EQ(target.reads.size(), 24u);
    EXPECT_TRUE(done);
    EXPECT_EQ(port->txPackets.get(), 1u);
    EXPECT_EQ(port->txBytes.get(), 1514u);
}

TEST_F(NicTest, RxCountersTrackBytes)
{
    port->deliver(packet(1024));
    port->deliver(packet(512));
    EXPECT_EQ(port->rxBytes.get(), 1536u);
    EXPECT_EQ(port->rxPackets.get(), 2u);
}

/**
 * A port of 4 RX queues whose first core is 4: it owns cores 4-7, so
 * ring q and the classifier's destCore = 4 + q are distinguishable.
 */
class MultiQueueNicTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t queues = 4;
    static constexpr sim::CoreId firstCore = 4;

    MultiQueueNicTest()
    {
        nic::NicConfig cfg;
        cfg.ringSize = 32;
        port = std::make_unique<nic::Nic>(s, "nic", cfg, target, alloc,
                                          firstCore, queues);
        port->start();
        for (std::uint32_t q = 0; q < queues; ++q) {
            for (std::uint32_t i = 0; i < 32; ++i)
                port->rxRing(q).swArm(i, alloc.allocate(2048, 64), i);
        }
    }

    static net::Packet
    packet(std::uint16_t srcPort)
    {
        net::Packet p;
        p.flow.srcIp = 0x0a000001;
        p.flow.dstIp = 0x0a000002;
        p.flow.srcPort = srcPort;
        p.flow.dstPort = 5000;
        p.frameBytes = 64;
        return p;
    }

    /**
     * Deliver one packet to an idle port; return the ring it landed in
     * and check the classifier saw the same destination.
     */
    std::uint32_t
    deliverOne(const net::Packet &p, sim::CoreId dest)
    {
        target.writes.clear();
        std::vector<std::uint64_t> before;
        for (std::uint32_t q = 0; q < queues; ++q)
            before.push_back(port->queueRxPackets(q));
        port->deliver(p);
        s.runFor(10 * sim::oneUs);

        EXPECT_FALSE(target.writes.empty());
        for (const auto &w : target.writes)
            EXPECT_EQ(w.meta.destCore, dest);
        std::uint32_t ring = queues;
        for (std::uint32_t q = 0; q < queues; ++q) {
            if (port->queueRxPackets(q) != before[q]) {
                EXPECT_EQ(ring, queues) << "packet landed in two rings";
                ring = q;
            }
        }
        return ring;
    }

    sim::Simulation s;
    CountingTarget target;
    mem::PhysAllocator alloc;
    std::unique_ptr<nic::Nic> port;
};

TEST_F(MultiQueueNicTest, RetaSteersRingAndClassifier)
{
    // Each flow lands in its RETA queue q, and every TLP names the
    // core polling q. Fewer packets than one ring holds, so none is
    // dropped.
    const nic::FlowDirector steering(queues); // the port's own
    std::vector<int> hits(queues, 0);
    for (std::uint16_t p = 300; p < 324; ++p) {
        const auto pkt = packet(p);
        const std::uint32_t q = steering.queueOf(pkt.flow);
        ASSERT_LT(q, queues);
        EXPECT_EQ(deliverOne(pkt, firstCore + q), q) << "srcPort " << p;
        ++hits[q];
    }
    // The port's destinations cover its own cores and no others.
    for (std::uint32_t q = 0; q < queues; ++q)
        EXPECT_GT(hits[q], 0) << "queue " << q;
}

TEST(OneQueueNic, EveryFlowTakesTheRingOfTheFirstCore)
{
    // A one-queue port has nothing to steer: whatever the flow, the
    // packet takes ring 0 and names the port's one core.
    sim::Simulation s;
    CountingTarget target;
    mem::PhysAllocator alloc;
    nic::NicConfig cfg;
    cfg.ringSize = 32;
    nic::Nic port(s, "nic", cfg, target, alloc, /*firstCore=*/5,
                  /*numQueues=*/1);
    port.start();
    for (std::uint32_t i = 0; i < 32; ++i)
        port.rxRing().swArm(i, alloc.allocate(2048, 64), i);
    for (std::uint16_t p = 1; p <= 16; ++p) {
        net::Packet pkt;
        pkt.flow.srcPort = static_cast<std::uint16_t>(1000 + 7 * p);
        pkt.flow.dstPort = static_cast<std::uint16_t>(6000 + p);
        pkt.frameBytes = 64;
        port.deliver(pkt);
    }
    s.runFor(20 * sim::oneUs);
    EXPECT_EQ(port.queueRxPackets(0), 16u);
    ASSERT_FALSE(target.writes.empty());
    for (const auto &w : target.writes)
        EXPECT_EQ(w.meta.destCore, 5u);
}

} // anonymous namespace
