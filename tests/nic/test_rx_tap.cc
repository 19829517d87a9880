/**
 * @file
 * NIC RX tap tests (the pcap-recording hook).
 */

#include <gtest/gtest.h>

#include "mem/phys_alloc.hh"
#include "nic/nic.hh"
#include "sim/simulation.hh"

#include "../sim/callback_event.hh"

namespace
{

class NullTarget : public nic::DmaTarget
{
  public:
    void dmaWrite(sim::Addr, const nic::TlpMeta &) override {}
    sim::Tick dmaRead(sim::Addr) override { return 1; }
};

TEST(RxTap, SeesEveryDeliveryIncludingDrops)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::NicConfig cfg;
    cfg.ringSize = 8;
    nic::Nic port(s, "nic", cfg, target, alloc, 0, 1);
    // Arm only 4 descriptors: deliveries 5.. will drop.
    for (std::uint32_t i = 0; i < 4; ++i)
        port.rxRing().swArm(i, alloc.allocate(2048, 64), i);

    std::vector<std::uint64_t> seen;
    port.setRxTap([&](sim::Tick, const net::Packet &p) {
        seen.push_back(p.seq);
    });

    for (int i = 0; i < 6; ++i) {
        net::Packet p;
        p.flow.srcPort = 1;
        p.frameBytes = 64;
        p.seq = i;
        port.deliver(p);
    }
    s.runFor(sim::oneMs);

    ASSERT_EQ(seen.size(), 6u) << "drops are observed too";
    EXPECT_EQ(port.rxDrops.get(), 2u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(seen[i], std::uint64_t(i));
}

TEST(RxTap, TimestampIsArrivalTime)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port(s, "nic", {}, target, alloc, 0, 1);
    port.rxRing().swArm(0, alloc.allocate(2048, 64), 0);

    sim::Tick tapped = 0;
    port.setRxTap(
        [&](sim::Tick when, const net::Packet &) { tapped = when; });

    simtest::Callbacks cb(s.eventq());
    cb.at(5 * sim::oneUs, [&] {
        net::Packet p;
        p.frameBytes = 64;
        port.deliver(p);
    });
    s.runFor(sim::oneMs);
    EXPECT_EQ(tapped, 5 * sim::oneUs);
}

TEST(RxTap, NoTapNoCrash)
{
    sim::Simulation s;
    NullTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port(s, "nic", {}, target, alloc, 0, 1);
    port.rxRing().swArm(0, alloc.allocate(2048, 64), 0);
    net::Packet p;
    p.frameBytes = 64;
    port.deliver(p);
    s.runFor(sim::oneMs);
    SUCCEED();
}

} // anonymous namespace
