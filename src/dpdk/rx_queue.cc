/**
 * @file
 * RxQueue implementation.
 */

#include "rx_queue.hh"

#include "ckpt/serializer.hh"

namespace dpdk
{

namespace
{

/** The tail doorbell's cost in ticks. */
constexpr sim::Tick tailUpdateCost = sim::nsToTicks(RxQueue::tailUpdateNs);

} // anonymous namespace

RxQueue::RxQueue(cpu::Core &core, nic::Nic &port, Mempool &pool,
                 std::uint32_t queueIdx)
    : core(core), nicPort(port), pool(pool), qIdx(queueIdx),
      // Queue 0 keeps the legacy source name so single-queue traces
      // stay byte-identical; higher queues get a .q<N> suffix.
      trc(port.tracer().registerSource(
          queueIdx == 0
              ? port.name() + ".pmd"
              : port.name() + ".pmd.q" + std::to_string(queueIdx)))
{
}

void
RxQueue::initialArm()
{
    nic::RxRing &ring = nicPort.rxRing(qIdx);
    for (std::uint32_t i = 0; i < ring.size(); ++i) {
        const std::uint32_t idx = pool.alloc();
        if (idx == invalidMbuf)
            sim::fatal("mempool too small to arm the RX ring");
        ring.swArm(i, pool.at(idx).dataAddr, idx);
    }
    armNext = 0;
    // A descriptor completing ends the core's idle sleep.
    nicPort.setRingWatcher(
        qIdx, sim::Delegate<void()>::fromMember<&cpu::Core::wake>(&core));
}

PollResult
RxQueue::pollBurst()
{
    nic::RxRing &ring = nicPort.rxRing(qIdx);
    PollResult res;

    if (!ring.swReady()) {
        // Empty poll: the PMD still reads the head descriptor's first
        // cacheline to check DD.
        res.latency = core.read(ring.descAddr(ring.swHead()), 1);
        return res;
    }

    // Sampled only on non-empty polls so idle polling cannot flood
    // the ring with identical zero samples.
    IDIO_TRACE_COUNTER(trc, trace::EventKind::DpdkRingBacklog,
                       core.now(), ring.backlog(), 0);

    while (res.mbufs.size() < burst && ring.swReady()) {
        const std::uint32_t descIdx = ring.swConsume();
        const nic::RxSlot &slot = ring.slot(descIdx);

        // Parse the full descriptor and fill in the mbuf metadata.
        res.latency += core.read(ring.descAddr(descIdx),
                                 nic::rxDescBytes);
        Mbuf &m = pool.at(slot.mbufIdx);
        m.pktBytes = slot.pkt.frameBytes;
        m.pkt = slot.pkt;
        res.latency += core.write(m.metaAddr, mbufMetaBytes);

        res.mbufs.push_back(slot.mbufIdx);
        ++toRefill;
    }
    return res;
}

sim::Tick
RxQueue::refill()
{
    nic::RxRing &ring = nicPort.rxRing(qIdx);
    sim::Tick lat = 0;
    bool armedAny = false;

    while (toRefill > 0) {
        const std::uint32_t idx = pool.alloc();
        if (idx == invalidMbuf)
            break; // buffers still in flight; retry next batch
        lat += core.read(pool.freeListSlotAddr(), 1);
        IDIO_TRACE_INSTANT(trc, trace::EventKind::DpdkAlloc,
                           core.now(), 0, 0, idx);
        ring.swArm(armNext, pool.at(idx).dataAddr, idx);
        lat += core.write(ring.descAddr(armNext), nic::rxDescBytes);
        armNext = (armNext + 1) % ring.size();
        --toRefill;
        armedAny = true;
    }

    if (armedAny)
        lat += tailUpdateCost; // posted MMIO tail write
    return lat;
}

void
RxQueue::serialize(ckpt::Serializer &s) const
{
    s.writeU32(armNext);
    s.writeU32(toRefill);
}

void
RxQueue::unserialize(ckpt::Deserializer &d)
{
    armNext = d.readU32();
    toRefill = d.readU32();
}

} // namespace dpdk
