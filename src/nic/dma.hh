/**
 * @file
 * NIC DMA engine.
 *
 * Serialises DMA transfers over a PCIe link of configurable
 * bandwidth, one cacheline per line time. A transfer is a run of
 * consecutive lines queued as one entry; each line still reaches the
 * DmaTarget (the root-complex-side IDIO controller / DDIO logic) as
 * its own write, or is read for the TX egress path. Callback entries
 * fire in order with the surrounding transfers, letting the NIC
 * observe transfer completion (descriptor writeback, TX done).
 */

#ifndef IDIO_NIC_DMA_HH
#define IDIO_NIC_DMA_HH

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "nic/tlp.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace nic
{

/**
 * Arguments carried by a *named* DMA completion callback. Fixed-size
 * so pending callbacks are checkpointable: owners pack whatever the
 * handler needs (indices, addresses, timestamps) into the slots.
 */
using DmaArgs = std::array<std::uint64_t, 6>;

/** A named completion handler registered with registerHandler(). */
using DmaHandler = std::function<void(const DmaArgs &)>;

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
    /**
     * @param target Root-complex handler for DMA transactions.
     * @param pcieGBps Effective PCIe bandwidth for this port.
     */
    DmaEngine(sim::Simulation &simulation, const std::string &name,
              DmaTarget &target, double pcieGBps);

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

    /**
     * Register a named completion handler. Handlers must be
     * registered in deterministic construction order; the returned id
     * is stable for a given configuration, and the checkpoint stores
     * the *name* so id drift across versions still restores correctly.
     */
    std::uint32_t registerHandler(const std::string &handlerName,
                                  DmaHandler fn);

    /** Queue an in-order completion callback by handler id. */
    void enqueueCallback(std::uint32_t handlerId, const DmaArgs &args);

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter linesWritten;
    stats::Counter linesRead;
    stats::Counter callbacks;
    /** @} */

  private:
    /**
     * One queued transfer: @p lines consecutive cachelines from
     * @p addr, or (Callback) the position of the next pending
     * callback record. The pump advances the front run a line at a
     * time. Kind values are the checkpoint's record tags.
     */
    struct Transfer
    {
        enum class Kind : std::uint8_t
        {
            WriteLine,
            ReadLine,
            Callback,
        };

        sim::Addr addr;
        TlpMeta meta;
        std::uint32_t lines;
        Kind kind;
    };
    static_assert(sizeof(Transfer) == 24);

    /** A completion callback waiting for its Callback transfer. */
    struct PendingCallback
    {
        std::uint32_t handlerId;
        DmaArgs args;
    };

    struct Handler
    {
        std::string hname;
        DmaHandler fn;
    };

    class PumpEvent : public sim::Event
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
    sim::Tick lineTime;
    std::deque<Transfer> xfers;
    std::deque<PendingCallback> pendingCbs;
    std::vector<Handler> handlers;
    PumpEvent pumpEvent;
};

} // namespace nic

#endif // IDIO_NIC_DMA_HH
