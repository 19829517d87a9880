/**
 * @file
 * Latency-carrying cross-domain message channels.
 *
 * A LinkChannel is one directed edge of the split-link machine: a modelled
 * interconnect link (PCIe port, mesh hop) between a source timing
 * domain and a destination domain that live on different event queues.
 * The source domain calls send() during a conservative window, which
 * only appends to a single-producer staging deque — no cross-thread
 * state is touched while domains run in parallel. At each window
 * barrier the ShardedExecutor flushes every registered channel (in
 * registration order, single-threaded): each staged message is
 * scheduled into the destination queue at sendTick + linkLatency and
 * moved to the in-flight deque. Because the executor window never
 * exceeds the minimum link latency, a delivery always lands in a later
 * window than its send — the barrier protocol guarantees the
 * destination has not advanced past the delivery tick.
 *
 * Delivery order is FIFO per channel: the fixed latency makes delivery
 * ticks ascend with send ticks, and same-tick deliveries inherit the
 * staging order through the queue's sequence numbers.
 *
 * Deliveries are batched per delivery tick: a run of staged messages
 * that land on the same destination tick is flushed as ONE scheduled
 * event that replays the whole run through the handler in staging
 * order, so a burst of same-window messages pays a single scheduler
 * insertion instead of one per message. The per-channel FIFO order is
 * unchanged — runs are consecutive in the staging deque (delivery
 * ticks ascend), and the batch fires at the position the run's first
 * message would have had.
 *
 * In-flight messages checkpoint: serialize() records the batch
 * delivery schedule (tick + sequence + run length) and the message
 * payloads; unserialize() re-registers one delivery per batch against
 * the destination queue through the deferred-replay machinery, so a
 * checkpoint taken with messages on the wire restores bit-identically.
 * Batch bookkeeping is validated eagerly on both save and restore
 * (the run lengths must sum to the payload count).
 *
 * The message type must provide
 *     static void serializeMsg(ckpt::Serializer &, const Msg &);
 *     static Msg unserializeMsg(ckpt::Deserializer &);
 */

#ifndef IDIO_SIM_SHARD_LINK_HH
#define IDIO_SIM_SHARD_LINK_HH

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "ckpt/serializer.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace sim
{
namespace shard
{

/**
 * Executor-facing channel interface: the barrier flush point.
 */
class LinkChannelBase
{
  public:
    virtual ~LinkChannelBase() = default;

    /**
     * Move every staged message onto the destination queue's schedule.
     * Called only at window barriers (single-threaded).
     */
    virtual void flush() = 0;

    /** Messages staged but not yet flushed. */
    virtual std::size_t staged() const = 0;

    /** Messages flushed but not yet delivered. */
    virtual std::size_t inFlight() const = 0;
};

/**
 * One directed latency edge carrying messages of type @p Msg.
 */
template <typename Msg>
class LinkChannel : public SimObject, public LinkChannelBase
{
  public:
    using Handler = std::function<void(const Msg &)>;

    /**
     * @param srcQueue The sender domain's queue (supplies send ticks).
     * @param dstQueue The receiver domain's queue (deliveries land
     *        here).
     * @param latency One-way link latency; must be at least the
     *        executor's conservative window (split mode sets the
     *        window to the minimum link latency, so it is).
     */
    LinkChannel(Simulation &simulation, const std::string &name,
                const EventQueue &srcQueue, EventQueue &dstQueue,
                Tick latency)
        : SimObject(simulation, name), srcQueue(srcQueue),
          dstQueue(dstQueue), linkLatency(latency)
    {
        SIM_ASSERT(latency > 0, "link channels need a nonzero latency");
    }

    /** Receiver-side message handler (set once, at construction). */
    void setHandler(Handler h) { handler = std::move(h); }

    Tick latency() const { return linkLatency; }

    /**
     * Stage a message for delivery at srcNow + latency. Called only
     * from the source domain (single producer).
     */
    void
    send(Msg m)
    {
        stagedMsgs.push_back(Staged{srcQueue.now(), std::move(m)});
    }

    void
    flush() override
    {
        std::size_t i = 0;
        while (i < stagedMsgs.size()) {
            const Tick at = stagedMsgs[i].sendTick + linkLatency;
            std::size_t j = i + 1;
            while (j < stagedMsgs.size() &&
                   stagedMsgs[j].sendTick + linkLatency == at)
                ++j;
            const std::uint64_t seq =
                dstQueue.schedule(at, [this] { deliverBatch(); });
            batches.push_back(Batch{
                at, seq, static_cast<std::uint64_t>(j - i)});
            for (std::size_t k = i; k < j; ++k)
                inflight.push_back(std::move(stagedMsgs[k].msg));
            i = j;
        }
        stagedMsgs.clear();
    }

    std::size_t staged() const override { return stagedMsgs.size(); }
    std::size_t inFlight() const override { return inflight.size(); }

    void
    serialize(ckpt::Serializer &s) const override
    {
        SIM_ASSERT(stagedMsgs.empty(),
                   "checkpoint taken mid-window (staged link messages)");
        std::uint64_t total = 0;
        for (const Batch &b : batches)
            total += b.count;
        SIM_ASSERT(total == inflight.size(),
                   "link batch bookkeeping out of sync with payloads");
        s.writeU64(batches.size());
        for (const Batch &b : batches) {
            s.writeTick(b.when);
            s.writeU64(b.seq);
            s.writeU64(b.count);
        }
        s.writeU64(inflight.size());
        for (const Msg &m : inflight)
            Msg::serializeMsg(s, m);
    }

    void
    unserialize(ckpt::Deserializer &d) override
    {
        batches.clear();
        inflight.clear();
        const std::uint64_t nBatches = d.readU64();
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < nBatches; ++i) {
            Batch b;
            b.when = d.readTick();
            b.seq = d.readU64();
            b.count = d.readU64();
            if (b.count == 0)
                fatal("link channel '%s': checkpointed empty batch",
                      name().c_str());
            total += b.count;
            batches.push_back(b);
            d.deferOneShot(b.seq, b.when, [this] { deliverBatch(); },
                           &dstQueue);
        }
        const std::uint64_t nMsgs = d.readU64();
        if (total != nMsgs) {
            fatal("link channel '%s': checkpointed batch lengths sum "
                  "to %llu but %llu payloads follow",
                  name().c_str(),
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(nMsgs));
        }
        for (std::uint64_t i = 0; i < nMsgs; ++i)
            inflight.push_back(Msg::unserializeMsg(d));
    }

  private:
    struct Staged
    {
        Tick sendTick;
        Msg msg;
    };

    /** One scheduled delivery covering @c count consecutive payloads. */
    struct Batch
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint64_t count = 0;
    };

    /**
     * Deliveries fire in the order they were flushed (fixed latency =>
     * ascending delivery ticks; ties keep staging order through the
     * queue sequence numbers), so the front batch is always the one
     * due, covering the first @c count payloads in flight.
     */
    void
    deliverBatch()
    {
        SIM_ASSERT(!batches.empty(),
                   "link delivery fired with nothing in flight");
        const Batch b = batches.front();
        batches.pop_front();
        SIM_ASSERT(b.count <= inflight.size(),
                   "link batch longer than in-flight payloads");
        for (std::uint64_t i = 0; i < b.count; ++i) {
            const Msg m = std::move(inflight.front());
            inflight.pop_front();
            handler(m);
        }
    }

    const EventQueue &srcQueue;
    EventQueue &dstQueue;
    Tick linkLatency;
    Handler handler;
    std::deque<Staged> stagedMsgs;
    std::deque<Batch> batches;
    std::deque<Msg> inflight;
};

} // namespace shard
} // namespace sim

#endif // IDIO_SIM_SHARD_LINK_HH
