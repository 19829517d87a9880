/**
 * @file
 * Message fabric for split-link mode (latency-edge timing domains).
 *
 * With modelled interconnect latencies (LinkLatencyConfig), the
 * TestSystem decomposes into real timing domains: one per NF core
 * (core + L1 + MLC + PMD + mempool + NF), one for the NIC port (rings,
 * DMA engine, classifier, traffic generator), and the uncore (LLC,
 * directory, DRAM, IDIO controller) on the main queue. Every
 * cross-domain interaction travels as a SplitMsg over a
 * sim::shard::LinkChannel — a latency edge between two domains —
 * instead of a same-tick call:
 *
 *   NIC -> uncore  (PCIe)   DmaWrite
 *   core -> uncore (mesh)   FillReq, VictimWb, CoreInval,
 *                           PrefetchRetire
 *   uncore -> core (mesh)   FillRsp, MlcInval, BackInval,
 *                           PrefetchInstall
 *   NIC -> core    (PCIe)   DescReady
 *   core -> NIC    (PCIe)   RingConsume, RingArm
 *
 * All kinds of one directed pair share a single channel, so FIFO
 * delivery gives the orderings correctness needs for free: a core's
 * VictimWb always reaches the directory before its next FillReq for
 * the same set, and a fill install always lands before a subsequent
 * back-invalidation of the same line.
 *
 * Sharing a channel also concentrates traffic: LinkChannel flushes a
 * window's worth of same-delivery-tick SplitMsgs as one batched
 * scheduler insertion on the destination queue (see
 * sim/shard/link.hh), so fabric cost scales with delivery *ticks*,
 * not with message count.
 */

#ifndef IDIO_HARNESS_SPLIT_FABRIC_HH
#define IDIO_HARNESS_SPLIT_FABRIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "nic/dma.hh"
#include "nic/tlp.hh"
#include "sim/shard/link.hh"

namespace harness
{

/** One message on a split-plan link. */
struct SplitMsg
{
    enum class Kind : std::uint8_t
    {
        DmaWrite,        ///< NIC->uncore: inbound DMA line (addr, meta)
        FillReq,         ///< core->uncore: demand miss (a = write)
        FillRsp,         ///< uncore->core: a = extraLat, b = flags
        VictimWb,        ///< core->uncore: a = dirty, b = io
        CoreInval,       ///< core->uncore: self-invalidate upkeep
        MlcInval,        ///< uncore->core: DMA overwrite inval
        BackInval,       ///< uncore->core: directory-victim inval
        PrefetchInstall, ///< uncore->core: a = dirty, b = io
        PrefetchRetire,  ///< core->uncore: prefetched line retired
        DescReady,       ///< NIC->core: a = descIdx, b = mbufIdx, pkt
        RingConsume,     ///< core->NIC: a = descIdx
        RingArm,         ///< core->NIC: a = descIdx, b = mbufIdx, addr
    };

    Kind kind = Kind::FillReq;
    std::uint32_t core = 0; ///< core id (mesh) or queue index (PCIe)
    sim::Addr addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    nic::TlpMeta meta;      ///< DmaWrite only
    net::Packet pkt;        ///< DescReady only

    /** @{ FillRsp flag word (b). */
    static constexpr std::uint64_t flagDirty = 1u << 0;
    static constexpr std::uint64_t flagIo = 1u << 1;
    static constexpr std::uint64_t flagWrite = 1u << 2;
    static constexpr unsigned levelShift = 8;
    /** @} */

    static void
    serializeMsg(ckpt::Serializer &s, const SplitMsg &m)
    {
        s.writeU8(static_cast<std::uint8_t>(m.kind));
        s.writeU32(m.core);
        s.writeU64(m.addr);
        s.writeU64(m.a);
        s.writeU64(m.b);
        nic::serializeTlpMeta(s, m.meta);
        net::serializePacket(s, m.pkt);
    }

    static SplitMsg
    unserializeMsg(ckpt::Deserializer &d)
    {
        SplitMsg m;
        m.kind = static_cast<Kind>(d.readU8());
        m.core = d.readU32();
        m.addr = d.readU64();
        m.a = d.readU64();
        m.b = d.readU64();
        m.meta = nic::unserializeTlpMeta(d);
        m.pkt = net::unserializePacket(d);
        return m;
    }
};

/** The channel type every split link uses. */
using SplitChannel = sim::shard::LinkChannel<SplitMsg>;

/**
 * Root-complex adapter handed to the NIC as its DmaTarget: inbound
 * writes become DmaWrite messages on the PCIe link (the real IDIO
 * controller consumes them uncore-side). The egress path needs a
 * synchronous pull of dirty MLC data and is not modelled in split
 * mode.
 */
class PcieDmaTarget : public nic::DmaTarget
{
  public:
    explicit PcieDmaTarget(SplitChannel &link) : link(link) {}

    void
    dmaWrite(sim::Addr addr, const nic::TlpMeta &meta) override
    {
        SplitMsg m;
        m.kind = SplitMsg::Kind::DmaWrite;
        m.addr = addr;
        m.meta = meta;
        link.send(std::move(m));
    }

    sim::Tick
    dmaRead(sim::Addr) override
    {
        sim::fatal("outbound DMA reads are not supported in "
                   "split-link mode");
    }

  private:
    SplitChannel &link;
};

/**
 * The split topology's queues and channels, in construction order
 * (which is also the executor's channel-flush order).
 */
struct SplitFabric
{
    sim::EventQueue *nicQ = nullptr;
    std::vector<sim::EventQueue *> coreQ;

    std::unique_ptr<SplitChannel> nicToUncore;
    std::vector<std::unique_ptr<SplitChannel>> coreToUncore;
    std::vector<std::unique_ptr<SplitChannel>> uncoreToCore;
    std::vector<std::unique_ptr<SplitChannel>> nicToCore;
    std::vector<std::unique_ptr<SplitChannel>> coreToNic;
};

} // namespace harness

#endif // IDIO_HARNESS_SPLIT_FABRIC_HH
