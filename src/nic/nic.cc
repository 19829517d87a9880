/**
 * @file
 * Nic implementation.
 */

#include "nic.hh"

#include <algorithm>
#include <cmath>

#include "sim/simulation.hh"

namespace nic
{

namespace
{

/** The descriptor batching delay in ticks. */
constexpr sim::Tick descWbDelay = sim::nsToTicks(Nic::descWbDelayNs);

/**
 * @p config, after the checks that must pass before any part of the
 * port is built from it (the DMA engine's line time, the rings).
 */
const NicConfig &
validated(const std::string &name, const NicConfig &config,
          std::uint32_t numQueues)
{
    if (numQueues == 0)
        sim::fatal("NIC '%s' needs at least one RX queue",
                   name.c_str());
    if (config.ringSize < 8)
        sim::fatal("NIC '%s' ring size %u is below the minimum of 8",
                   name.c_str(), config.ringSize);
    if (!std::isfinite(config.pcieGBps) || config.pcieGBps <= 0.0)
        sim::fatal("NIC '%s' PCIe bandwidth %g GB/s must be positive "
                   "and finite",
                   name.c_str(), config.pcieGBps);
    return config;
}

} // anonymous namespace

Nic::Nic(sim::Simulation &simulation, const std::string &name,
         const NicConfig &config, DmaTarget &target,
         mem::PhysAllocator &alloc, sim::CoreId firstCore,
         std::uint32_t numQueues)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      rxPackets(statGroup, "rxPackets", "packets received at the MAC"),
      rxBytes(statGroup, "rxBytes", "bytes received at the MAC"),
      rxDrops(statGroup, "rxDrops",
              "packets dropped because the RX ring was full"),
      txPackets(statGroup, "txPackets", "packets transmitted"),
      txBytes(statGroup, "txBytes", "bytes transmitted"),
      cfg(validated(name, config, numQueues)), firstCore(firstCore),
      trc(simulation.tracer().registerSource(name)),
      fdir(numQueues),
      dma(simulation, name + ".dma", target, cfg.pcieGBps,
          DmaEngine::Sink::fromMember<&Nic::onDmaCompletion>(this),
          numQueues, cfg.ringSize),
      cls(simulation, name + ".classifier", firstCore, numQueues)
{
    rings.reserve(numQueues);
    for (std::uint32_t q = 0; q < numQueues; ++q) {
        rings.emplace_back(
            alloc.allocate(std::uint64_t(cfg.ringSize) * rxDescBytes,
                           mem::lineSize),
            cfg.ringSize);
    }
    queueRx.assign(numQueues, 0);
    queueDrops.assign(numQueues, 0);
    ringWatchers.resize(numQueues);
    txDoneWatchers.resize(numQueues);
}

Nic::~Nic()
{
    for (PendingWb &wb : pendingWbs)
        if (wb.event.scheduled())
            eventq().deschedule(&wb.event);
}

void
Nic::start()
{
    cls.start();
}

void
Nic::deliver(net::Packet pkt)
{
    pkt.nicArrival = now();
    pkt.id = tracer().newPacketId();
    ++rxPackets;
    rxBytes += pkt.frameBytes;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::NicRx, pkt.nicArrival,
                       pkt.id, pkt.dscp, pkt.frameBytes);
    if (rxTap)
        rxTap(pkt.nicArrival, pkt);

    // One steering decision per packet picks one of the port's own
    // queues; the classifier turns it into the polling core. Queue
    // selection happens before the ring-full check, as in real
    // multi-queue hardware: the chosen ring's occupancy then decides
    // the drop. The decision is const, so making it for a packet that
    // is then dropped changes no state.
    const std::uint32_t q = fdir.queueOf(pkt.flow);
    RxRing &ring = rings[q];

    if (!ring.hwCanFill()) {
        ++rxDrops;
        ++queueDrops[q];
        IDIO_TRACE_INSTANT(trc, trace::EventKind::NicDrop, now(),
                           pkt.id, q, pkt.frameBytes);
        return;
    }

    const Classification pktCls = cls.classify(pkt, q);
    IDIO_TRACE_INSTANT(trc, trace::EventKind::NicClassify, now(),
                       pkt.id, pktCls.appClass, pktCls.destCore);
    const std::uint32_t idx = ring.hwClaim(pkt);
    ++queueRx[q];
    const RxSlot &slot = ring.slot(idx);

    // The header line and the payload body are two runs, each with
    // one TLP meta.
    const std::uint32_t lines = pkt.lines();
    const std::uint32_t headLines = std::min<std::uint32_t>(lines, 1);
    dma.enqueueWrite(slot.bufAddr, cls.tlpFor(pktCls, true), headLines);
    dma.enqueueWrite(slot.bufAddr + mem::lineSize,
                     cls.tlpFor(pktCls, false), lines - headLines);
    dma.enqueueCompletion(DmaCompletion{DmaCompletion::Kind::PayloadDone,
                                        pktCls.burstActive, q, idx});
}

void
Nic::onDmaCompletion(const DmaCompletion &done)
{
    switch (done.kind) {
      case DmaCompletion::Kind::PayloadDone:
        onPayloadDone(done);
        break;
      case DmaCompletion::Kind::DescComplete:
        onDescComplete(done.index, done.queue);
        break;
      case DmaCompletion::Kind::TxDone:
        if (txDoneWatchers[done.queue])
            txDoneWatchers[done.queue](done.index);
        break;
    }
}

void
Nic::onPayloadDone(const DmaCompletion &done)
{
    [[maybe_unused]] const RxSlot &slot =
        rings[done.queue].slot(done.index);
    IDIO_TRACE_COMPLETE(trc, trace::EventKind::NicDmaPayload,
                        slot.pkt.nicArrival, now() - slot.pkt.nicArrival,
                        slot.pkt.id, slot.pkt.lines(), slot.bufAddr);

    // Descriptor writeback happens a little after the payload DMA
    // (hardware batches completions); the descriptor lines are normal
    // DDIO writes tagged class 0 so they never take the direct-DRAM
    // path.
    TlpMeta meta;
    meta.appClass = 0;
    meta.isHeader = false;
    meta.isBurst = done.burst;
    meta.destCore = firstCore + done.queue;

    // The delay is a constant, so pending writebacks complete in FIFO
    // order and each one's event pops the deque's front.
    pendingWbs.emplace_back(*this, done.index, done.queue, meta);
    eventq().scheduleIn(&pendingWbs.back().event, descWbDelay);
}

void
Nic::descWbFire()
{
    // Runs from the front entry's own event; the pop at the end
    // destroys it, and the queue does not touch it after process().
    const PendingWb &wb = pendingWbs.front();
    SIM_ASSERT(!wb.event.scheduled(),
               "descriptor writebacks completed out of order");

    const sim::Addr base = rings[wb.queue].descAddr(wb.descIdx);
    dma.enqueueWrite(base, wb.meta,
                     static_cast<std::uint32_t>(
                         mem::linesSpanned(base, rxDescBytes)));
    dma.enqueueCompletion(DmaCompletion{
        DmaCompletion::Kind::DescComplete, false, wb.queue, wb.descIdx});
    pendingWbs.pop_front();
}

void
Nic::onDescComplete(std::uint32_t descIdx, std::uint32_t queue)
{
    RxRing &ring = rings[queue];
    if (ringWatchers[queue])
        ringWatchers[queue]();
    ring.hwComplete(descIdx);
    IDIO_TRACE_INSTANT(trc, trace::EventKind::NicDescWb, now(),
                       ring.slot(descIdx).pkt.id, queue, descIdx);
}

void
Nic::transmit(sim::Addr bufAddr, std::uint32_t frameBytes,
              std::uint32_t queue, std::uint32_t mbufIdx)
{
    dma.enqueueRead(bufAddr, static_cast<std::uint32_t>(
                                 mem::linesSpanned(bufAddr, frameBytes)));
    ++txPackets;
    txBytes += frameBytes;
    dma.enqueueCompletion(DmaCompletion{DmaCompletion::Kind::TxDone,
                                        false, queue, mbufIdx});
}

void
Nic::serialize(ckpt::Serializer &s) const
{
    s.writeU32(numQueues());
    for (const RxRing &ring : rings) {
        // Ring indices and per-slot state (field by field: RxSlot
        // holds a Packet, which has padding).
        s.writeU32(ring.hwHead());
        s.writeU32(ring.swHead());
        s.writeU32(ring.size());
        for (std::uint32_t i = 0; i < ring.size(); ++i) {
            const RxSlot &slot = ring.slot(i);
            s.writeU64(slot.bufAddr);
            s.writeU32(slot.mbufIdx);
            s.writeBool(slot.armed);
            s.writeBool(slot.inFlight);
            s.writeBool(slot.dd);
            net::serializePacket(s, slot.pkt);
        }
    }
    for (std::uint64_t v : queueRx)
        s.writeU64(v);
    for (std::uint64_t v : queueDrops)
        s.writeU64(v);

    // In-flight descriptor writebacks, front (oldest) first.
    s.writeU64(pendingWbs.size());
    for (const PendingWb &wb : pendingWbs) {
        s.writeTick(wb.event.when());
        s.writeU64(wb.event.seq());
        s.writeU32(wb.descIdx);
        s.writeU32(wb.queue);
        serializeTlpMeta(s, wb.meta);
    }
}

void
Nic::unserialize(ckpt::Deserializer &d)
{
    const std::uint32_t queues = d.readU32();
    if (queues != numQueues())
        sim::fatal("ckpt: '%s' queue count mismatch (checkpoint %u, "
                   "config %u)",
                   name().c_str(), queues, numQueues());
    for (std::uint32_t q = 0; q < queues; ++q) {
        RxRing &ring = rings[q];
        const std::uint32_t hw = d.readU32();
        const std::uint32_t sw = d.readU32();
        const std::uint32_t n = d.readU32();
        if (n != ring.size())
            sim::fatal("ckpt: '%s' ring size mismatch (checkpoint %u, "
                       "config %u)",
                       name().c_str(), n, ring.size());
        ring.restoreHeads(hw, sw);
        for (std::uint32_t i = 0; i < n; ++i) {
            RxSlot &slot = ring.slot(i);
            slot.bufAddr = d.readU64();
            slot.mbufIdx = d.readU32();
            if (slot.mbufIdx >= dma.mempoolSize(q))
                sim::fatal("ckpt: RX slot %u of queue %u holds mbuf %u, "
                           "out of range for its pool of %u in section "
                           "'%s'",
                           i, q, slot.mbufIdx, dma.mempoolSize(q),
                           name().c_str());
            slot.armed = d.readBool();
            slot.inFlight = d.readBool();
            slot.dd = d.readBool();
            slot.pkt = net::unserializePacket(d);
        }
    }
    for (std::uint64_t &v : queueRx)
        v = d.readU64();
    for (std::uint64_t &v : queueDrops)
        v = d.readU64();

    pendingWbs.clear();
    const std::uint64_t wbs = d.readU64();
    for (std::uint64_t i = 0; i < wbs; ++i) {
        const sim::Tick when = d.readTick();
        const std::uint64_t seq = d.readU64();
        const std::uint32_t descIdx = d.readU32();
        const std::uint32_t queue = d.readU32();
        pendingWbs.emplace_back(*this, descIdx, queue,
                                unserializeTlpMeta(d));
        d.deferEvent(seq, when, &pendingWbs.back().event);
    }
}

} // namespace nic
