/**
 * @file
 * NIC DMA engine.
 *
 * Serialises DMA transfers over a PCIe link of configurable
 * bandwidth, one cacheline per line time. A transfer is a run of
 * consecutive lines queued as one entry; each line still reaches the
 * DmaTarget (the root-complex-side IDIO controller / DDIO logic) as
 * its own write, or is read for the TX egress path. Completion
 * records reach the engine's sink in order with the surrounding
 * lines, letting the NIC observe transfer completion (payload done,
 * descriptor writeback, TX done).
 */

#ifndef IDIO_NIC_DMA_HH
#define IDIO_NIC_DMA_HH

#include <deque>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "nic/tlp.hh"
#include "sim/delegate.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace nic
{

/**
 * One DMA completion of a port: the payload of descriptor @c index of
 * ring @c queue has been written (PayloadDone), so has its descriptor
 * (DescComplete), or the frame in mbuf @c index has been read for TX
 * on @c queue (TxDone). It holds only what the ring slot does not.
 */
struct DmaCompletion
{
    enum class Kind : std::uint8_t
    {
        PayloadDone,
        DescComplete,
        TxDone,
    };

    Kind kind;
    bool burst;          ///< PayloadDone: the burst bit its writeback carries
    std::uint32_t queue;
    std::uint32_t index; ///< descriptor index; TxDone: mbuf index

    bool operator==(const DmaCompletion &) const = default;
};

/**
 * Root-complex-side consumer of DMA transactions. Implemented by the
 * IDIO controller (and by the plain-DDIO baseline configuration).
 */
class DmaTarget
{
  public:
    virtual ~DmaTarget() = default;

    /** A full-cacheline inbound DMA write with TLP metadata. */
    virtual void dmaWrite(sim::Addr addr, const TlpMeta &meta) = 0;

    /** An outbound DMA read. @return service latency. */
    virtual sim::Tick dmaRead(sim::Addr addr) = 0;
};

/**
 * The per-port DMA engine.
 */
class DmaEngine : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /** Receives every completion, in order with the lines around it. */
    using Sink = sim::Delegate<void(const DmaCompletion &)>;

    /**
     * @param target Root-complex handler for DMA transactions.
     * @param pcieGBps Effective PCIe bandwidth for this port.
     * @param sink The owner's completion handler.
     * @param queues, ringSize The port's queues and ring entries: a
     *        restored completion's queue must be below @p queues and
     *        its descriptor index below @p ringSize.
     */
    DmaEngine(sim::Simulation &simulation, const std::string &name,
              DmaTarget &target, double pcieGBps, Sink sink,
              std::uint32_t queues, std::uint32_t ringSize);

    ~DmaEngine() override;

    /**
     * Queue an inbound write of @p lines consecutive cachelines from
     * the line holding @p addr, every line carrying @p meta. Zero
     * lines queue nothing.
     */
    void enqueueWrite(sim::Addr addr, const TlpMeta &meta,
                      std::uint32_t lines = 1);

    /** Queue an outbound read of @p lines cachelines from @p addr. */
    void enqueueRead(sim::Addr addr, std::uint32_t lines = 1);

    /** Queue @p done for the sink, behind every line queued so far. */
    void enqueueCompletion(const DmaCompletion &done);

    /**
     * Queue @p queue's frames sit in a pool of @p mbufs buffers: a
     * restored TxDone's mbuf index must be below it. A queue no pool
     * was bound to accepts any index.
     */
    void bindMempool(std::uint32_t queue, std::uint32_t mbufs);

    /** Buffers of the pool bound to @p queue (see bindMempool()). */
    std::uint32_t mempoolSize(std::uint32_t queue) const
    {
        return poolSizes[queue];
    }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter linesWritten;
    stats::Counter linesRead;
    stats::Counter callbacks;
    /** @} */

  private:
    /**
     * One queued transfer: a run of @c lines consecutive cachelines
     * from @c run.addr, or one completion. The pump advances the
     * front run a line at a time.
     */
    struct Transfer
    {
        enum class Kind : std::uint8_t
        {
            WriteLine,
            ReadLine,
            Completion,
        };

        struct Run
        {
            sim::Addr addr;
            TlpMeta meta;
        };

        Transfer(Kind kind, sim::Addr addr, const TlpMeta &meta,
                 std::uint32_t lines)
            : run{addr, meta}, lines(lines), kind(kind)
        {
        }

        explicit Transfer(const DmaCompletion &done)
            : done(done), lines(1), kind(Kind::Completion)
        {
        }

        union
        {
            Run run;            ///< WriteLine, ReadLine
            DmaCompletion done; ///< Completion
        };
        std::uint32_t lines;
        Kind kind;
    };
    static_assert(sizeof(Transfer) == 24);

    /** Run by the queue's agent (see sim::AgentEvent). */
    class PumpEvent : public sim::AgentEvent
    {
      public:
        explicit PumpEvent(DmaEngine &owner) : owner(owner) {}
        void process() override { owner.pump(); }
        std::string name() const override
        {
            return owner.name() + ".pump";
        }

      private:
        DmaEngine &owner;
    };

    void push(const Transfer &t);
    void pump();

    DmaTarget &target;
    Sink sink;
    std::uint32_t queues;
    std::uint32_t ringSize;
    std::vector<std::uint32_t> poolSizes; ///< per queue, see bindMempool()
    sim::Tick lineTime;
    std::deque<Transfer> xfers;
    PumpEvent pumpEvent;
};

} // namespace nic

#endif // IDIO_NIC_DMA_HH
