/**
 * @file
 * Polling-mode driver (RxQueue) tests against a real NIC model.
 */

#include <gtest/gtest.h>

#include "dpdk/rx_queue.hh"
#include "idio/controller.hh"
#include "sim/simulation.hh"

namespace
{

/** A full RX stack: hierarchy + DDIO controller + NIC + PMD. */
class RxQueueTest : public ::testing::Test
{
  protected:
    RxQueueTest()
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 2;
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        ctrl = std::make_unique<idio::IdioController>(
            s, "idio", *hier, idio::IdioConfig{.policy = idio::Policy::Ddio});
        nic::NicConfig ncfg;
        ncfg.ringSize = 64;
        port = std::make_unique<nic::Nic>(s, "nic", ncfg, *ctrl, alloc,
                                          0);
        core = std::make_unique<cpu::Core>(s, "core0", 0, *hier);
        pool = std::make_unique<dpdk::Mempool>(alloc, 128);
        rxq = std::make_unique<dpdk::RxQueue>(*core, *port, *pool);
        rxq->initialArm();
    }

    void
    deliver(int n)
    {
        for (int i = 0; i < n; ++i) {
            net::Packet p;
            p.flow.srcIp = 1;
            p.flow.dstIp = 2;
            p.flow.srcPort = 1;
            p.flow.dstPort = 5000;
            p.frameBytes = 1514;
            p.seq = seq++;
            port->deliver(p);
        }
        s.runFor(100 * sim::oneUs); // let DMA + descriptor WB finish
    }

    sim::Simulation s;
    mem::PhysAllocator alloc;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::IdioController> ctrl;
    std::unique_ptr<nic::Nic> port;
    std::unique_ptr<cpu::Core> core;
    std::unique_ptr<dpdk::Mempool> pool;
    std::unique_ptr<dpdk::RxQueue> rxq;
    std::uint64_t seq = 0;
};

TEST_F(RxQueueTest, InitialArmUsesPoolBuffers)
{
    EXPECT_EQ(pool->available(), 128u - 64u);
    EXPECT_EQ(port->rxRing().armedCount(), 64u);
}

TEST_F(RxQueueTest, EmptyPollReturnsNothingButCostsTime)
{
    const auto res = rxq->pollBurst();
    EXPECT_TRUE(res.mbufs.empty());
    EXPECT_GT(res.latency, 0u) << "the DD check reads memory";
}

TEST_F(RxQueueTest, PollReturnsCompletedPackets)
{
    deliver(5);
    const auto res = rxq->pollBurst();
    EXPECT_EQ(res.mbufs.size(), 5u);
    EXPECT_GT(res.latency, 0u);
    // Mbufs carry the packet info from the descriptors.
    for (std::size_t i = 0; i < res.mbufs.size(); ++i) {
        EXPECT_EQ(pool->at(res.mbufs[i]).pkt.seq, i);
        EXPECT_EQ(pool->at(res.mbufs[i]).pktBytes, 1514u);
    }
}

TEST_F(RxQueueTest, PollRespectsBurstLimit)
{
    deliver(50);
    const auto res = rxq->pollBurst();
    EXPECT_EQ(res.mbufs.size(), 32u) << "DPDK default burst";
    const auto res2 = rxq->pollBurst();
    EXPECT_EQ(res2.mbufs.size(), 18u);
}

TEST_F(RxQueueTest, RefillRearmsConsumedDescriptors)
{
    deliver(10);
    auto res = rxq->pollBurst();
    EXPECT_EQ(rxq->pendingRefill(), 10u);

    // Free the consumed buffers, then refill.
    for (auto idx : res.mbufs)
        pool->free(idx);
    const auto lat = rxq->refill();
    EXPECT_GT(lat, 0u);
    EXPECT_EQ(rxq->pendingRefill(), 0u);
    EXPECT_EQ(port->rxRing().armedCount(), 64u);
}

TEST_F(RxQueueTest, RefillStopsWhenPoolEmpty)
{
    deliver(10);
    auto res = rxq->pollBurst();
    // Drain the pool completely (do not free the consumed mbufs).
    while (pool->alloc() != dpdk::invalidMbuf) {
    }
    rxq->refill();
    EXPECT_EQ(rxq->pendingRefill(), 10u)
        << "no buffers -> descriptors stay unarmed";
}

TEST_F(RxQueueTest, FullCycleKeepsRingUsable)
{
    // Three full ring generations.
    for (int round = 0; round < 3; ++round) {
        deliver(64);
        std::uint32_t got = 0;
        for (;;) {
            auto res = rxq->pollBurst();
            if (res.mbufs.empty())
                break;
            got += res.mbufs.size();
            for (auto idx : res.mbufs)
                pool->free(idx);
            rxq->refill();
        }
        EXPECT_EQ(got, 64u) << "round " << round;
    }
    EXPECT_EQ(port->rxDrops.get(), 0u);
}

TEST_F(RxQueueTest, DriverTrafficFlowsThroughCaches)
{
    deliver(4);
    rxq->pollBurst();
    // Descriptor reads + mbuf writes must have touched the hierarchy.
    EXPECT_GT(core->reads.get(), 0u);
    EXPECT_GT(core->writes.get(), 0u);
}

} // anonymous namespace
