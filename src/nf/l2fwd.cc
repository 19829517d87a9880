/**
 * @file
 * L2Fwd implementation.
 */

#include "l2fwd.hh"

#include "ckpt/serializer.hh"
#include "net/headers.hh"

namespace nf
{

L2Fwd::L2Fwd(sim::Simulation &simulation, const std::string &name,
             cpu::Core &core, dpdk::RxQueue &rxQueue,
             const NfConfig &config, bool selfInvalidate)
    : NetworkFunction(simulation, name, core, rxQueue, config,
                      selfInvalidate)
{
    rxQueue.port().setTxDoneWatcher(
        rxQueue.queueIndex(),
        sim::Delegate<void(std::uint32_t)>::fromMember<&L2Fwd::onTxDone>(
            this));
}

sim::Tick
L2Fwd::processPacket(cpu::Core &c, dpdk::Mbuf &m)
{
    // Read the protocol headers (one cacheline: Ethernet+IP+UDP fit in
    // 42 bytes) and rewrite the Ethernet addresses in place.
    sim::Tick lat = c.read(m.dataAddr, net::headerBytes);
    lat += c.write(m.dataAddr, net::EthernetHeader::wireBytes);
    lat += perLineCost;

    // Zero-copy TX of the same DMA buffer; completion recycles it.
    ++txInFlight;
    rxq.port().transmit(m.dataAddr, txBytes(m), rxq.queueIndex(), m.idx);
    return lat;
}

void
L2Fwd::onTxDone(std::uint32_t mbufIdx)
{
    --txInFlight;
    // The buffer is dead only now; sample latency, self-invalidate,
    // and recycle. The release cost is charged to the NF's next step.
    deferredCost += completePacket(mbufIdx, 0);
}

void
L2Fwd::serialize(ckpt::Serializer &s) const
{
    NetworkFunction::serialize(s);
    s.writeU32(txInFlight);
}

void
L2Fwd::unserialize(ckpt::Deserializer &d)
{
    NetworkFunction::unserialize(d);
    txInFlight = d.readU32();
}

} // namespace nf
