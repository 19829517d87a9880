/**
 * @file
 * Network function base class.
 *
 * Implements the run-to-completion DPDK execution loop common to the
 * paper's workloads (Table II): poll a burst of up to 32 descriptors,
 * process packets one at a time, then free (and, under IDIO, self-
 * invalidate) the consumed DMA buffers and re-arm the ring. Concrete
 * NFs override processPacket() with their touching pattern.
 *
 * Per-packet latency is sampled at the moment the paper's gem5 pseudo
 * instruction would execute: when the packet is fully processed
 * (TouchDrop) or when its TX DMA completes (L2Fwd).
 */

#ifndef IDIO_NF_NETWORK_FUNCTION_HH
#define IDIO_NF_NETWORK_FUNCTION_HH

#include <deque>
#include <string>

#include "cpu/core.hh"
#include "dpdk/rx_queue.hh"
#include "sim/sim_object.hh"
#include "stats/latency_recorder.hh"
#include "stats/registry.hh"
#include "trace/tracer.hh"

namespace nf
{

/**
 * Tuning knobs shared by all network functions. Fields because fig04
 * recalibrates them to the paper's physical Xeon.
 */
struct NfConfig
{
    /** Gap between empty polls, ns (bounds idle event count). */
    double idlePollGapNs = 100.0;

    /** Fixed software overhead per packet, ns (calibrated). */
    double perPacketCostNs = 100.0;

    /** Compute cost per touched cacheline, ns (calibrated). */
    double perLineCostNs = 8.0;
};

/**
 * Common NF machinery.
 */
class NetworkFunction : public cpu::Workload, public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    NetworkFunction(sim::Simulation &simulation, const std::string &name,
                    cpu::Core &core, dpdk::RxQueue &rxQueue,
                    const NfConfig &config, bool selfInvalidate);

    /** Bind to the core and start polling. */
    void launch();

    sim::Tick step(cpu::Core &core) final;
    std::string label() const override { return name(); }

    /** Skipped idle steps are empty polls. */
    void creditIdleSteps(std::uint64_t n) override { emptyPolls += n; }

    const NfConfig &config() const { return cfg; }

    /** M1: whether consumed DMA buffers are self-invalidated. */
    bool selfInvalidates() const { return selfInvalidate; }

    /** @{ Counters. */
    stats::Counter packetsProcessed;
    stats::Counter bytesProcessed;
    stats::Counter batches;
    stats::Counter emptyPolls;
    stats::LatencyRecorder latency;
    /** @} */

    /**
     * Checkpoints the NF loop state plus the driver objects it owns
     * (RX queue cursors and the mempool) in one section.
     */
    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  protected:
    /**
     * NF-specific packet handling.
     * @return CPU latency of the handling.
     */
    virtual sim::Tick processPacket(cpu::Core &core, dpdk::Mbuf &m) = 0;

    /**
     * True when the packet's life continues after processPacket()
     * (e.g.\ zero-copy TX); the subclass then calls completePacket()
     * itself.
     */
    virtual bool asyncCompletion() const { return false; }

    /**
     * Whether completePacket() performs the self-invalidation.
     * Copy-mode NFs invalidate earlier, inside processPacket().
     */
    virtual bool
    invalidateOnComplete() const
    {
        return selfInvalidate;
    }

    /**
     * Sample latency and release the buffer. Synchronous NFs get the
     * cost added to the current step; asynchronous completions (TX
     * callbacks) report their cost through deferredCost, charged to
     * the next step.
     *
     * @param accrued Latency already accrued in the current step
     *        (pass 0 from asynchronous completion contexts).
     * @return buffer release cost.
     */
    sim::Tick completePacket(std::uint32_t mbufIdx, sim::Tick accrued);

    dpdk::RxQueue &rxq;
    cpu::Core &core;
    NfConfig cfg;
    bool selfInvalidate;
    trace::Source trc;
    sim::Tick perPacketCost;
    sim::Tick perLineCost;
    sim::Tick idleGap;

    /** Cost accrued by async completions, charged to the next step. */
    sim::Tick deferredCost = 0;

  private:
    std::deque<std::uint32_t> pending;
};

} // namespace nf

#endif // IDIO_NF_NETWORK_FUNCTION_HH
