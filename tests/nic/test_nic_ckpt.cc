/**
 * @file
 * Checkpointing in-flight descriptor writebacks. Each pending
 * writeback is an Event the NIC holds, saved as {when, seq} and
 * replayed in sequence order, so a restored port sets its DD bits at
 * the same ticks and in the same order as the uninterrupted run, also
 * where another object's event shares a writeback's tick.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/serializer.hh"
#include "mem/phys_alloc.hh"
#include "nic/nic.hh"
#include "sim/delegate.hh"
#include "sim/simulation.hh"

namespace
{

using TickAddr = std::pair<sim::Tick, sim::Addr>;
using DdSet = std::pair<sim::Tick, std::uint32_t>;

/** Records every inbound DMA line with its tick. */
class TimedTarget : public nic::DmaTarget
{
  public:
    explicit TimedTarget(const sim::Simulation &s) : s(s) {}

    void
    dmaWrite(sim::Addr addr, const nic::TlpMeta &) override
    {
        writes.push_back({s.now(), addr});
    }

    sim::Tick dmaRead(sim::Addr) override { return 10; }

    std::vector<TickAddr> writes;

  private:
    const sim::Simulation &s;
};

net::Packet
smallPacket(std::uint16_t srcPort)
{
    net::Packet p;
    p.flow.srcIp = 0x0a000001;
    p.flow.dstIp = 0x0a000002;
    p.flow.srcPort = srcPort;
    p.flow.dstPort = 5000;
    p.frameBytes = 64;
    return p;
}

/** Delivers one packet to a port at a set tick; checkpointed. */
class Wire : public sim::SimObject
{
  public:
    Wire(sim::Simulation &s, const std::string &name, nic::Nic &port)
        : sim::SimObject(s, name), port(port)
    {
    }

    ~Wire() override
    {
        if (ev.scheduled())
            eventq().deschedule(&ev);
    }

    void deliverAt(sim::Tick when) { eventq().schedule(&ev, when); }

    void
    serialize(ckpt::Serializer &s) const override
    {
        ckpt::serializeEvent(s, ev);
    }

    void
    unserialize(ckpt::Deserializer &d) override
    {
        ckpt::unserializeEvent(d, &ev);
    }

  private:
    class DeliverEvent : public sim::Event
    {
      public:
        explicit DeliverEvent(Wire &owner) : owner(owner) {}
        void process() override { owner.port.deliver(smallPacket(99)); }

      private:
        Wire &owner;
    };

    nic::Nic &port;
    DeliverEvent ev{*this};
};

/** One port with an armed ring and two wires; logs every DD-bit set. */
struct Rig
{
    static constexpr std::uint32_t ringSize = 32;

    Rig()
        : target(s), port(s, "nic", config(), target, alloc, 0, 1),
          early(s, "early", port), late(s, "late", port)
    {
        port.start();
        for (std::uint32_t i = 0; i < ringSize; ++i)
            port.rxRing().swArm(i, alloc.allocate(2048, 64), i);
        port.setRingWatcher(
            0, sim::Delegate<void()>::fromMember<&Rig::beforeDd>(this));
    }

    static nic::NicConfig
    config()
    {
        nic::NicConfig cfg;
        cfg.ringSize = ringSize;
        return cfg;
    }

    std::vector<bool>
    ddBits()
    {
        std::vector<bool> dd;
        for (std::uint32_t i = 0; i < ringSize; ++i)
            dd.push_back(port.rxRing().slot(i).dd);
        return dd;
    }

    /** The watcher runs just before a descriptor's DD bit is set. */
    void beforeDd() { snapshots.push_back({s.now(), ddBits()}); }

    /**
     * (tick, descriptor) of every DD-bit set so far, in order: the
     * k-th watcher call precedes the k-th set, which the next
     * snapshot (or the ring as it is now) shows.
     */
    std::vector<DdSet>
    ddSets()
    {
        std::vector<DdSet> sets;
        for (std::size_t k = 0; k < snapshots.size(); ++k) {
            const std::vector<bool> &before = snapshots[k].second;
            const std::vector<bool> after = k + 1 < snapshots.size()
                                                ? snapshots[k + 1].second
                                                : ddBits();
            for (std::uint32_t i = 0; i < ringSize; ++i)
                if (!before[i] && after[i])
                    sets.push_back({snapshots[k].first, i});
        }
        return sets;
    }

    /** Tick of the first DMA line written to descriptor @p idx. */
    sim::Tick
    descWriteTick(std::uint32_t idx)
    {
        const sim::Addr addr = port.rxRing().descAddr(idx);
        for (const TickAddr &w : target.writes)
            if (w.second == addr)
                return w.first;
        return sim::maxTick;
    }

    sim::Simulation s;
    TimedTarget target;
    mem::PhysAllocator alloc;
    nic::Nic port;
    Wire early;
    Wire late;
    std::vector<std::pair<sim::Tick, std::vector<bool>>> snapshots;
};

/**
 * Four 64 B packets 10 ns apart, so each writeback finds the DMA
 * engine idle and its descriptor's first line goes out at its tick.
 */
void
feed(Rig &r)
{
    for (std::uint16_t k = 0; k < 4; ++k) {
        r.port.deliver(smallPacket(k));
        r.s.runUntil(r.s.now() + sim::nsToTicks(10.0));
    }
}

TEST(NicCheckpoint, PendingWritebacksSetDdBitsAsUninterrupted)
{
    // Past the wires' own writebacks: each packet's descriptor goes
    // out Nic::descWbDelayNs after its payload.
    const sim::Tick end = 4 * sim::oneUs;
    static_assert(2 * sim::nsToTicks(nic::Nic::descWbDelayNs) < end);

    Rig ref;
    feed(ref);
    ref.s.runUntil(end);
    std::vector<sim::Tick> wbAt;
    for (std::uint32_t k = 0; k < 4; ++k)
        wbAt.push_back(ref.descWriteTick(k));
    ASSERT_EQ(wbAt[3], wbAt[0] + sim::nsToTicks(30.0));

    // Same traffic, plus a packet at writeback 1's tick scheduled
    // before it (so it fires first) and one at writeback 2's tick
    // scheduled after it (so it fires second). The checkpoint falls
    // just before the first writeback, with all four pending.
    Rig cold;
    cold.early.deliverAt(wbAt[1]);
    feed(cold);
    cold.late.deliverAt(wbAt[2]);
    const sim::Tick ckptAt = wbAt[0] - 1;
    cold.s.runUntil(ckptAt);
    ASSERT_TRUE(cold.ddSets().empty());
    const auto blob = ckpt::save(cold.s);
    cold.s.runUntil(end);

    // The same-tick packets decide the DMA order: the early one's
    // line goes ahead of descriptor 1, the late one's behind
    // descriptor 2.
    const sim::Tick line = sim::nsToTicks(2.0);
    EXPECT_EQ(cold.descWriteTick(1), wbAt[1] + line);
    EXPECT_EQ(cold.descWriteTick(2), wbAt[2]);
    const std::vector<DdSet> want = cold.ddSets();
    ASSERT_EQ(want.size(), 6u); // four packets and the two wires'
    EXPECT_GT(want.front().first, ckptAt);

    Rig warm;
    ckpt::restore(warm.s, blob);
    warm.s.runUntil(end);
    EXPECT_EQ(warm.ddSets(), want);

    std::vector<TickAddr> coldAfter;
    for (const TickAddr &w : cold.target.writes)
        if (w.first > ckptAt)
            coldAfter.push_back(w);
    EXPECT_EQ(warm.target.writes, coldAfter);
}

} // anonymous namespace
