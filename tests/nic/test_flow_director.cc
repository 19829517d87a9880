/**
 * @file
 * Flow Director tests: a port steers each flow to one of its own
 * queues, by RSS through a fixed RETA when it has more than one.
 */

#include <gtest/gtest.h>

#include "nic/flow_director.hh"

namespace
{

net::FiveTuple
flow(std::uint16_t srcPort, std::uint16_t dstPort = 5000)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = srcPort;
    t.dstPort = dstPort;
    return t;
}

TEST(FlowDirector, OneQueuePortTakesQueueZero)
{
    nic::FlowDirector fd(1);
    for (std::uint16_t p = 1; p < 200; ++p)
        EXPECT_EQ(fd.queueOf(flow(p, 6000 + p)), 0u);
}

TEST(FlowDirector, RssFallbackInRange)
{
    nic::FlowDirector fd(4);
    for (std::uint16_t p = 1; p < 200; ++p)
        EXPECT_LT(fd.queueOf(flow(p)), 4u);
}

TEST(FlowDirector, RssFallbackSpreadsFlows)
{
    nic::FlowDirector fd(4);
    std::vector<int> hits(4, 0);
    for (std::uint16_t p = 1; p <= 400; ++p)
        ++hits[fd.queueOf(flow(p, 6000 + p))];
    for (int q = 0; q < 4; ++q)
        EXPECT_GT(hits[q], 40) << "queue " << q;
}

TEST(FlowDirectorRss, DefaultRetaIsRoundRobinFill)
{
    // Hash bucket i (the low 7 bits) holds queue i % numQueues, the
    // layout drivers program at device init.
    static_assert(nic::FlowDirector::retaEntries == 128);
    for (const std::uint32_t queues : {2u, 3u, 4u, 32u}) {
        nic::FlowDirector fd(queues);
        for (std::uint16_t p = 1; p <= 300; ++p) {
            const auto f = flow(p, 6000 + p);
            EXPECT_EQ(fd.queueOf(f), (net::toeplitzHash(f) & 127u) % queues)
                << queues << " queues, srcPort " << p;
        }
    }
}

TEST(FlowDirectorRss, RetaQueueAlwaysInRange)
{
    for (const std::uint32_t queues : {3u, 8u, 128u}) {
        nic::FlowDirector fd(queues);
        for (std::uint16_t p = 1; p <= 1000; ++p)
            EXPECT_LT(fd.queueOf(flow(p, 6000 + p)), queues);
    }
}

TEST(FlowDirectorRssDeath, BadRetaUseIsFatal)
{
    // The RETA is fixed at 128 entries, so a port's queue count must
    // fit it: a queue no entry names would never receive a packet.
    EXPECT_EXIT(nic::FlowDirector(129), ::testing::ExitedWithCode(1),
                "129 queues exceed the 128-entry RETA");
}

TEST(FlowDirectorDeath, BadTableSizeIsFatal)
{
    EXPECT_EXIT(nic::FlowDirector(0), ::testing::ExitedWithCode(1),
                "at least one");
}

} // anonymous namespace
