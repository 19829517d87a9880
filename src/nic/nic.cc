/**
 * @file
 * Nic implementation.
 */

#include "nic.hh"

#include "sim/simulation.hh"

namespace nic
{

namespace
{

/** Pack a Classification into one DmaArgs slot (and back). */
std::uint64_t
packClassification(const Classification &cls)
{
    return std::uint64_t(cls.appClass) |
           (std::uint64_t(cls.destCore) << 8) |
           (std::uint64_t(cls.burstActive ? 1 : 0) << 40);
}

Classification
unpackClassification(std::uint64_t v)
{
    Classification cls;
    cls.appClass = static_cast<std::uint8_t>(v & 0xff);
    cls.destCore = static_cast<sim::CoreId>((v >> 8) & 0xffffffffu);
    cls.burstActive = ((v >> 40) & 1) != 0;
    return cls;
}

/** Pack (descriptor index, queue) into one DmaArgs slot. */
std::uint64_t
packDescRef(std::uint32_t idx, std::uint32_t queue)
{
    return std::uint64_t(idx) | (std::uint64_t(queue) << 32);
}

std::uint32_t descRefIdx(std::uint64_t v)
{
    return static_cast<std::uint32_t>(v & 0xffffffffu);
}

std::uint32_t descRefQueue(std::uint64_t v)
{
    return static_cast<std::uint32_t>(v >> 32);
}

} // anonymous namespace

Nic::Nic(sim::Simulation &simulation, const std::string &name,
         const NicConfig &config, DmaTarget &target,
         mem::PhysAllocator &alloc, std::uint32_t numCores)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      rxPackets(statGroup, "rxPackets", "packets received at the MAC"),
      rxBytes(statGroup, "rxBytes", "bytes received at the MAC"),
      rxDrops(statGroup, "rxDrops",
              "packets dropped because the RX ring was full"),
      txPackets(statGroup, "txPackets", "packets transmitted"),
      txBytes(statGroup, "txBytes", "bytes transmitted"),
      cfg(config), trc(simulation.tracer().registerSource(name)),
      fdir(numCores, 8192, config.rssTableEntries, config.numQueues),
      dma(simulation, name + ".dma", target, config.pcieGBps),
      cls(simulation, name + ".classifier", config.classifier, numCores),
      descWbDelay(sim::nsToTicks(config.descWbDelayNs))
{
    if (cfg.numQueues == 0)
        sim::fatal("NIC '%s' needs at least one RX queue",
                   name.c_str());
    rings.reserve(cfg.numQueues);
    for (std::uint32_t q = 0; q < cfg.numQueues; ++q) {
        rings.emplace_back(
            alloc.allocate(std::uint64_t(cfg.ringSize) * rxDescBytes,
                           mem::lineSize),
            cfg.ringSize);
    }
    queueRx.assign(cfg.numQueues, 0);
    queueDrops.assign(cfg.numQueues, 0);
    ringWatchers.resize(cfg.numQueues);

    payloadDoneHandler = dma.registerHandler(
        name + ".payloadDone",
        [this](const DmaArgs &args) { onPayloadDone(args); });
    descCompleteHandler = dma.registerHandler(
        name + ".descComplete", [this](const DmaArgs &args) {
            onDescComplete(descRefIdx(args[0]),
                           descRefQueue(args[0]));
        });
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

    // One steering decision per packet (EP/ATR filter, else the RSS
    // hash through the RETA) feeds both queue selection and the
    // classifier. Queue selection happens before the ring-full check,
    // as in real multi-queue hardware: the chosen ring's occupancy
    // then decides the drop. The lookup is const, so making it for a
    // packet that is then dropped changes no state. With one queue
    // this degenerates to the historical single-ring path.
    const sim::CoreId dest = fdir.lookup(pkt.flow);
    const std::uint32_t q = cfg.numQueues > 1 ? dest % cfg.numQueues : 0;
    RxRing &ring = rings[q];

    if (!ring.hwCanFill()) {
        ++rxDrops;
        ++queueDrops[q];
        IDIO_TRACE_INSTANT(trc, trace::EventKind::NicDrop, now(),
                           pkt.id, q, pkt.frameBytes);
        return;
    }

    const Classification pktCls = cls.classify(pkt, dest);
    IDIO_TRACE_INSTANT(trc, trace::EventKind::NicClassify, now(),
                       pkt.id, pktCls.appClass, pktCls.destCore);
    const std::uint32_t idx = ring.hwClaim(pkt);
    ++queueRx[q];
    const RxSlot &slot = ring.slot(idx);

    const std::uint32_t lines = pkt.lines();
    for (std::uint32_t i = 0; i < lines; ++i) {
        dma.enqueueWrite(slot.bufAddr + std::uint64_t(i) * mem::lineSize,
                         cls.tlpFor(pktCls, i == 0));
    }
    const sim::Tick dmaStart = now();
    dma.enqueueCallback(payloadDoneHandler,
                        DmaArgs{packDescRef(idx, q),
                                packClassification(pktCls),
                                dmaStart, pkt.id, lines,
                                slot.bufAddr});
}

void
Nic::onPayloadDone(const DmaArgs &args)
{
    const std::uint32_t idx = descRefIdx(args[0]);
    const std::uint32_t queue = descRefQueue(args[0]);
    const Classification pktCls = unpackClassification(args[1]);
    [[maybe_unused]] const sim::Tick dmaStart = args[2];
    [[maybe_unused]] const std::uint64_t pktId = args[3];
    [[maybe_unused]] const auto lines =
        static_cast<std::uint32_t>(args[4]);
    [[maybe_unused]] const sim::Addr bufAddr = args[5];
    IDIO_TRACE_COMPLETE(trc, trace::EventKind::NicDmaPayload, dmaStart,
                        now() - dmaStart, pktId, lines, bufAddr);
    startDescriptorWriteback(idx, queue, pktCls);
}

void
Nic::startDescriptorWriteback(std::uint32_t descIdx,
                              std::uint32_t queue,
                              const Classification &pktCls)
{
    // Descriptor writeback happens a little after the payload DMA
    // (hardware batches completions); the descriptor lines are normal
    // DDIO writes tagged class 0 so they never take the direct-DRAM
    // path.
    TlpMeta meta;
    meta.appClass = 0;
    meta.isHeader = false;
    meta.isBurst = pktCls.burstActive;
    meta.destCore = pktCls.destCore;

    // The delay is a constant, so pending writebacks complete in FIFO
    // order; the scheduled one-shot pops the deque's front. Tracking
    // them explicitly (instead of capturing descIdx/meta in the
    // closure) is what makes in-flight writebacks checkpointable.
    pendingWbs.push_back(
        PendingWb{now() + descWbDelay, 0, descIdx, queue, meta});
    pendingWbs.back().seq =
        eventq().scheduleIn(descWbDelay, [this] { descWbFire(); });
}

void
Nic::descWbFire()
{
    SIM_ASSERT(!pendingWbs.empty(),
               "descriptor writeback fired with none pending");
    const PendingWb wb = pendingWbs.front();
    pendingWbs.pop_front();

    const sim::Addr base = rings[wb.queue].descAddr(wb.descIdx);
    const std::uint64_t descLines = mem::linesSpanned(base, rxDescBytes);
    for (std::uint64_t i = 0; i < descLines; ++i) {
        dma.enqueueWrite(base + i * mem::lineSize, wb.meta);
    }
    dma.enqueueCallback(descCompleteHandler,
                        DmaArgs{packDescRef(wb.descIdx, wb.queue),
                                0, 0, 0, 0, 0});
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
              std::function<void()> txDone)
{
    const std::uint64_t lines = mem::linesSpanned(bufAddr, frameBytes);
    for (std::uint64_t i = 0; i < lines; ++i)
        dma.enqueueRead(bufAddr + i * mem::lineSize);
    ++txPackets;
    txBytes += frameBytes;
    if (txDone)
        dma.enqueueCallback(std::move(txDone));
}

void
Nic::transmit(sim::Addr bufAddr, std::uint32_t frameBytes,
              std::uint32_t txDoneHandler, const DmaArgs &args)
{
    const std::uint64_t lines = mem::linesSpanned(bufAddr, frameBytes);
    for (std::uint64_t i = 0; i < lines; ++i)
        dma.enqueueRead(bufAddr + i * mem::lineSize);
    ++txPackets;
    txBytes += frameBytes;
    dma.enqueueCallback(txDoneHandler, args);
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
        s.writeTick(wb.when);
        s.writeU64(wb.seq);
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
    for (RxRing &ring : rings) {
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
        PendingWb wb;
        wb.when = d.readTick();
        wb.seq = d.readU64();
        wb.descIdx = d.readU32();
        wb.queue = d.readU32();
        wb.meta = unserializeTlpMeta(d);
        pendingWbs.push_back(wb);
        d.deferOneShot(wb.seq, wb.when, [this] { descWbFire(); });
    }
}

} // namespace nic
