/**
 * @file
 * NIC top level.
 *
 * One Nic models one 100 Gbps Ethernet port: it accepts packets from a
 * traffic generator, steers each to one of its own RX queues, claims
 * an RX descriptor, runs the IDIO classifier, and streams cacheline
 * DMA writes (payload first, then the descriptor writeback after a
 * fixed completion delay) through the DMA engine to the root
 * complex. The TX path DMA-reads buffers for zero-copy forwarding NFs.
 *
 * A port is a range of cores: queue q is polled by core firstCore + q,
 * so every packet's destination core (TlpMeta::destCore) lies in
 * [firstCore, firstCore + numQueues).
 */

#ifndef IDIO_NIC_NIC_HH
#define IDIO_NIC_NIC_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mem/phys_alloc.hh"
#include "net/packet.hh"
#include "nic/classifier.hh"
#include "nic/dma.hh"
#include "nic/flow_director.hh"
#include "nic/rx_ring.hh"
#include "sim/delegate.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"
#include "trace/tracer.hh"

namespace nic
{

/** NIC configuration. */
struct NicConfig
{
    /** RX descriptor ring entries per queue (DPDK default 1024). */
    std::uint32_t ringSize = 1024;

    /**
     * Effective PCIe bandwidth of the port, GB/s. A field because
     * test_idle_sleep's poll-grid alignment puts poll grids on the
     * DMA pump grid this sets.
     */
    double pcieGBps = 32.0; // lint: allow(config-field)
};

/**
 * One Ethernet port with IDIO-capable DMA.
 */
class Nic : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param target Root-complex DMA handler.
     * @param alloc Allocator for descriptor ring memory.
     * @param firstCore Core polling queue 0; queue q's is
     *                  firstCore + q.
     * @param numQueues RX queues (rings) on the port. With one queue
     *                  every packet takes it; with more, the flow
     *                  director's RSS decision selects the ring
     *                  before the ring-full drop check, like real
     *                  multi-queue hardware. See FlowDirector.
     */
    Nic(sim::Simulation &simulation, const std::string &name,
        const NicConfig &config, DmaTarget &target,
        mem::PhysAllocator &alloc, sim::CoreId firstCore,
        std::uint32_t numQueues);
    ~Nic() override;

    /**
     * Delay between the end of a packet's payload DMA and the start of
     * its descriptor writeback, ns: the NIC's descriptor batching (the
     * paper observes ~1.9 us from first DMA to execution start). The
     * only value any workload uses.
     */
    static constexpr double descWbDelayNs = 1500.0;

    /** Start periodic machinery (classifier counters). */
    void start();

    /** Ingress: a packet arrives at the MAC. */
    void deliver(net::Packet pkt);

    /**
     * Observation tap on the ingress path (e.g.\ a pcap recorder);
     * invoked for every delivered packet, drops included.
     */
    using RxTap = std::function<void(sim::Tick, const net::Packet &)>;
    void setRxTap(RxTap tap) { rxTap = std::move(tap); }

    /**
     * Invoked when a descriptor of ring @p queue completes, before
     * software can see it: the polling core's wake-up (see
     * cpu::Core::wake). One watcher per ring.
     */
    void
    setRingWatcher(std::uint32_t queue, sim::Delegate<void()> w)
    {
        ringWatchers[queue] = w;
    }

    /**
     * Egress: DMA-read a frame for transmission; the named handler
     * @p txDoneHandler of the port's DMA engine runs with @p args once
     * the last line has been read.
     */
    void transmit(sim::Addr bufAddr, std::uint32_t frameBytes,
                  std::uint32_t txDoneHandler, const DmaArgs &args);

    /** RX ring of queue @p q (queue 0 is the legacy single ring). */
    RxRing &
    rxRing(std::uint32_t q = 0)
    {
        SIM_ASSERT(q < rings.size(), "rxRing: queue out of range");
        return rings[q];
    }

    std::uint32_t numQueues() const
    {
        return static_cast<std::uint32_t>(rings.size());
    }

    /** @{ Per-queue delivery counters (accepted / ring-full drops). */
    std::uint64_t queueRxPackets(std::uint32_t q) const
    {
        return queueRx.at(q);
    }
    std::uint64_t queueDropPackets(std::uint32_t q) const
    {
        return queueDrops.at(q);
    }
    /** @} */

    IdioClassifier &classifier() { return cls; }
    DmaEngine &dmaEngine() { return dma; }
    const NicConfig &config() const { return cfg; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter rxPackets;
    stats::Counter rxBytes;
    stats::Counter rxDrops;
    stats::Counter txPackets;
    stats::Counter txBytes;
    /** @} */

  private:
    /** Completes the oldest pending descriptor writeback. */
    class WbEvent : public sim::Event
    {
      public:
        explicit WbEvent(Nic &owner) : owner(owner) {}
        void process() override { owner.descWbFire(); }
        std::string name() const override
        {
            return owner.name() + ".descWb";
        }

      private:
        Nic &owner;
    };

    /**
     * A descriptor writeback waiting for its batching delay to elapse,
     * with the event that completes it. The delay is a constant, so
     * pending writebacks fire in FIFO order: each event pops the front
     * of the deque (its own entry), and a checkpoint serializes the
     * deque plus each event's {when, seq}.
     */
    struct PendingWb
    {
        PendingWb(Nic &nic, std::uint32_t descIdx, std::uint32_t queue,
                  const TlpMeta &meta)
            : event(nic), descIdx(descIdx), queue(queue), meta(meta)
        {
        }
        PendingWb(const PendingWb &) = delete; // the queue holds &event
        PendingWb &operator=(const PendingWb &) = delete;

        WbEvent event;
        std::uint32_t descIdx;
        std::uint32_t queue;
        TlpMeta meta;
    };

    void startDescriptorWriteback(std::uint32_t descIdx,
                                  std::uint32_t queue,
                                  const Classification &pktCls);
    void descWbFire();
    void onPayloadDone(const DmaArgs &args);
    void onDescComplete(std::uint32_t descIdx, std::uint32_t queue);

    NicConfig cfg;
    RxTap rxTap;
    std::vector<sim::Delegate<void()>> ringWatchers;
    trace::Source trc;
    FlowDirector fdir;
    DmaEngine dma;
    IdioClassifier cls;
    std::vector<RxRing> rings;
    std::vector<std::uint64_t> queueRx;
    std::vector<std::uint64_t> queueDrops;
    /** Oldest first; a deque keeps each entry's event in place. */
    std::deque<PendingWb> pendingWbs;
    std::uint32_t payloadDoneHandler;
    std::uint32_t descCompleteHandler;
};

} // namespace nic

#endif // IDIO_NIC_NIC_HH
