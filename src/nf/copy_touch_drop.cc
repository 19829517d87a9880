/**
 * @file
 * CopyTouchDrop implementation.
 */

#include "copy_touch_drop.hh"

#include "ckpt/serializer.hh"

namespace nf
{

CopyTouchDrop::CopyTouchDrop(sim::Simulation &simulation,
                             const std::string &name, cpu::Core &core,
                             dpdk::RxQueue &rxQueue,
                             const NfConfig &config,
                             bool selfInvalidate,
                             mem::PhysAllocator &alloc,
                             std::uint32_t arenaBuffers)
    : NetworkFunction(simulation, name, core, rxQueue, config,
                      selfInvalidate),
      arenaBase(alloc.allocate(
          std::uint64_t(arenaBuffers) * dpdk::defaultBufBytes,
          mem::pageSize)),
      arenaBuffers(arenaBuffers)
{
}

sim::Tick
CopyTouchDrop::processPacket(cpu::Core &c, dpdk::Mbuf &m)
{
    const sim::Addr copyAddr =
        arenaBase + std::uint64_t(nextSlot) * dpdk::defaultBufBytes;
    nextSlot = (nextSlot + 1) % arenaBuffers;

    // Copy loop: read each DMA line, write the copy line.
    sim::Tick lat = c.read(m.dataAddr, m.pktBytes);
    lat += c.write(copyAddr, m.pktBytes);

    // The DMA buffer is dead right now — before processing — which is
    // what makes copy-mode stacks the easiest self-invalidation
    // clients. (The base class's completePacket() would invalidate
    // after processing; doing it here shortens the window further.)
    if (selfInvalidate)
        lat += c.invalidate(m.dataAddr, m.pktBytes);

    // Process the copy: touch every line of it.
    lat += c.read(copyAddr, m.pktBytes);
    lat += perLineCost * mem::linesSpanned(copyAddr, m.pktBytes);
    return lat;
}

void
CopyTouchDrop::serialize(ckpt::Serializer &s) const
{
    NetworkFunction::serialize(s);
    s.writeU32(nextSlot);
}

void
CopyTouchDrop::unserialize(ckpt::Deserializer &d)
{
    NetworkFunction::unserialize(d);
    nextSlot = d.readU32();
}

} // namespace nf
