/**
 * @file
 * NetworkFunction implementation.
 */

#include "network_function.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace nf
{

NetworkFunction::NetworkFunction(sim::Simulation &simulation,
                                 const std::string &name,
                                 cpu::Core &core, dpdk::RxQueue &rxQueue,
                                 const NfConfig &config,
                                 bool selfInvalidate)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      packetsProcessed(statGroup, "packetsProcessed",
                       "packets fully processed"),
      bytesProcessed(statGroup, "bytesProcessed",
                     "frame bytes fully processed"),
      batches(statGroup, "batches", "non-empty RX bursts"),
      emptyPolls(statGroup, "emptyPolls", "polls that found no packet"),
      latency(statGroup, "latency",
              "per-packet NIC-arrival-to-completion latency (ticks)"),
      rxq(rxQueue), core(core), cfg(config),
      selfInvalidate(selfInvalidate),
      trc(simulation.tracer().registerSource(name)),
      perPacketCost(sim::nsToTicks(config.perPacketCostNs)),
      perLineCost(sim::nsToTicks(config.perLineCostNs)),
      idleGap(sim::nsToTicks(config.idlePollGapNs))
{
}

void
NetworkFunction::launch()
{
    rxq.initialArm();
    core.run(*this);
}

sim::Tick
NetworkFunction::step(cpu::Core &c)
{
    sim::Tick lat = deferredCost;
    deferredCost = 0;

    if (pending.empty()) {
        dpdk::PollResult res = rxq.pollBurst();
        lat += res.latency;
        if (res.mbufs.empty()) {
            ++emptyPolls;
            // With nothing deferred, the poll's one descriptor read is
            // all this step did: every later empty poll repeats it.
            if (lat == res.latency)
                c.offerIdle();
            return std::max<sim::Tick>(1, lat + idleGap);
        }
        ++batches;
        for (auto idx : res.mbufs)
            pending.push_back(idx);
        return std::max<sim::Tick>(1, lat);
    }

    const std::uint32_t idx = pending.front();
    pending.pop_front();
    dpdk::Mbuf &m = rxq.mempool().at(idx);

    lat += perPacketCost;
    lat += processPacket(c, m);

    ++packetsProcessed;
    bytesProcessed += m.pktBytes;
    // The span starts at the current step's begin; the CPU charges
    // the accrued latency after step() returns, so `lat` is this
    // packet's share of wall-clock core time.
    IDIO_TRACE_COMPLETE(trc, trace::EventKind::NfConsume, now(), lat,
                        m.pkt.id, c.id(), m.pktBytes);

    if (!asyncCompletion())
        lat += completePacket(idx, lat);

    if (pending.empty())
        lat += rxq.refill();

    return std::max<sim::Tick>(1, lat);
}

sim::Tick
NetworkFunction::completePacket(std::uint32_t mbufIdx, sim::Tick accrued)
{
    dpdk::Mbuf &m = rxq.mempool().at(mbufIdx);
    latency.sample(now() + accrued - m.pkt.nicArrival);

    sim::Tick lat = 0;
    if (invalidateOnComplete() && m.pktBytes > 0)
        lat += core.invalidate(m.dataAddr, m.pktBytes);
    lat += core.write(rxq.mempool().freeListSlotAddr(), 1);
    IDIO_TRACE_INSTANT(trc, trace::EventKind::DpdkFree, now(),
                       m.pkt.id, 0, mbufIdx);
    rxq.mempool().free(mbufIdx);
    return lat;
}

void
NetworkFunction::serialize(ckpt::Serializer &s) const
{
    s.writeU64(pending.size());
    for (const std::uint32_t idx : pending)
        s.writeU32(idx);
    s.writeTick(deferredCost);
    rxq.serialize(s);
    rxq.mempool().serialize(s);
}

void
NetworkFunction::unserialize(ckpt::Deserializer &d)
{
    pending.clear();
    const std::uint64_t n = d.readU64();
    for (std::uint64_t i = 0; i < n; ++i)
        pending.push_back(d.readU32());
    deferredCost = d.readTick();
    rxq.unserialize(d);
    rxq.mempool().unserialize(d);
}

} // namespace nf
