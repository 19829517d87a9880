/**
 * @file
 * IDIO classifier tests: app class, destination core, edge-triggered
 * per-queue burst detection (paper Sec. V-A).
 */

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "nic/classifier.hh"
#include "nic/flow_director.hh"
#include "sim/simulation.hh"

namespace
{

/** A port of 4 queues owning cores 8-11. */
class ClassifierTest : public ::testing::Test
{
  protected:
    static constexpr sim::CoreId firstCore = 8;

    ClassifierTest() : fdir(4), cls(s, "cls", cfgFor(), firstCore, 4)
    {
        cls.start();
    }

    static nic::ClassifierConfig
    cfgFor()
    {
        nic::ClassifierConfig c;
        c.rxBurstThresholdGbps = 10.0; // 1250 B per 1 us interval
        return c;
    }

    net::Packet
    packet(std::uint16_t srcPort, std::uint8_t dscp = 0,
           std::uint32_t bytes = 1514)
    {
        net::Packet p;
        p.flow.srcIp = 0x0a000001;
        p.flow.dstIp = 0x0a000002;
        p.flow.srcPort = srcPort;
        p.flow.dstPort = 5000;
        p.dscp = dscp;
        p.frameBytes = bytes;
        return p;
    }

    /** Classify @p p on queue @p queue. */
    nic::Classification
    classify(const net::Packet &p, std::uint32_t queue = 0)
    {
        return cls.classify(p, queue);
    }

    sim::Simulation s;
    nic::FlowDirector fdir;
    nic::IdioClassifier cls;
};

TEST_F(ClassifierTest, AppClassFromDscp)
{
    EXPECT_EQ(classify(packet(1, 0)).appClass, 0);
    EXPECT_EQ(classify(packet(1, 31)).appClass, 0);
    EXPECT_EQ(classify(packet(1, 32)).appClass, 1);
    EXPECT_EQ(classify(packet(1, 63)).appClass, 1);
    EXPECT_EQ(cls.class1Packets.get(), 2u);
}

TEST_F(ClassifierTest, DestCoreFromFlowDirector)
{
    // As the NIC does it: the Flow Director picks the queue, and the
    // destination is the core polling it.
    for (std::uint16_t p = 70; p < 90; ++p) {
        const std::uint32_t q = fdir.queueOf(packet(p).flow);
        EXPECT_EQ(classify(packet(p), q).destCore, firstCore + q);
    }
}

TEST_F(ClassifierTest, DestCoreIsTheCallersDestination)
{
    // The classifier does no steering of its own: it takes the queue
    // the NIC's one Flow Director decision produced.
    EXPECT_EQ(cls.classify(packet(77), 3).destCore, firstCore + 3);
    EXPECT_EQ(cls.burstCounter(3), 1514u);
}

TEST_F(ClassifierTest, OutOfRangeDestCorePanics)
{
    // Queue 4 of a 4-queue port would name core 12, outside the port.
    EXPECT_DEATH(cls.classify(packet(77), 4), "queue out of range");
}

TEST_F(ClassifierTest, ThresholdBytesMatchTenGbps)
{
    // 10 Gbps over 1 us = 1250 bytes.
    EXPECT_EQ(cls.thresholdBytes(), 1250u);
}

TEST_F(ClassifierTest, BurstFlaggedOnCrossingAfterQuiet)
{
    // First MTU packet crosses 1250 B immediately -> burst start.
    const auto c1 = classify(packet(1));
    EXPECT_TRUE(c1.burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 1u);

    // Further packets in the same interval do not re-signal.
    EXPECT_FALSE(classify(packet(1)).burstActive);
    EXPECT_FALSE(classify(packet(1)).burstActive);
}

TEST_F(ClassifierTest, SustainedTrafficSignalsOnlyOnce)
{
    classify(packet(1)); // burst start
    // Cross the threshold in each of the next intervals too.
    for (int interval = 0; interval < 5; ++interval) {
        s.runFor(sim::oneUs);
        const auto c = classify(packet(1));
        EXPECT_FALSE(c.burstActive)
            << "sustained reception must not re-signal";
        classify(packet(1));
    }
    EXPECT_EQ(cls.burstsDetected.get(), 1u);
}

TEST_F(ClassifierTest, NewBurstAfterQuietPeriodSignalsAgain)
{
    classify(packet(1));
    EXPECT_EQ(cls.burstsDetected.get(), 1u);

    // Two full quiet intervals.
    s.runFor(3 * sim::oneUs);
    const auto c = classify(packet(1));
    EXPECT_TRUE(c.burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 2u);
}

TEST_F(ClassifierTest, SmallPacketsAccumulateToThreshold)
{
    // 64-byte packets: the 20th crosses 1250 bytes.
    for (int i = 0; i < 19; ++i)
        EXPECT_FALSE(classify(packet(1, 0, 64)).burstActive);
    EXPECT_TRUE(classify(packet(1, 0, 64)).burstActive);
}

TEST_F(ClassifierTest, PerCoreCountersIndependent)
{
    // One counter per queue, so per polling core.
    EXPECT_TRUE(classify(packet(1), 0).burstActive);
    // Queue 1's counter is untouched by queue 0's traffic.
    EXPECT_EQ(cls.burstCounter(1), 0u);
    EXPECT_TRUE(classify(packet(2), 1).burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 2u);
}

TEST_F(ClassifierTest, CountersResetEveryInterval)
{
    classify(packet(1));
    EXPECT_GT(cls.burstCounter(0), 0u);
    s.runFor(2 * sim::oneUs);
    EXPECT_EQ(cls.burstCounter(0), 0u);
}

TEST_F(ClassifierTest, TlpForBuildsMetadata)
{
    const auto c = classify(packet(9, 40), 3);
    const auto header = cls.tlpFor(c, true);
    const auto payload = cls.tlpFor(c, false);
    EXPECT_TRUE(header.isHeader);
    EXPECT_FALSE(payload.isHeader);
    EXPECT_EQ(header.appClass, 1);
    EXPECT_EQ(header.destCore, firstCore + 3);
}

TEST(ClassifierCkptDeath, QueueCountDriftIsFatal)
{
    // A blob written for a 2-queue port (or by builds that sized the
    // burst state by the machine's cores) must not restore into a
    // 1-queue port's classifier, where it would leave a counter no
    // queue owns.
    sim::Simulation two;
    nic::IdioClassifier wide(two, "port.classifier", {}, 0, 2);
    wide.start();
    const auto blob = ckpt::save(two);

    EXPECT_EXIT(
        {
            sim::Simulation one;
            nic::IdioClassifier narrow(one, "port.classifier", {}, 0, 1);
            narrow.start();
            ckpt::restore(one, blob);
        },
        ::testing::ExitedWithCode(1),
        "'port.classifier' holds burst state for 2 queues; the port has 1");
}

} // anonymous namespace
