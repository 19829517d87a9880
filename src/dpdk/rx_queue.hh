/**
 * @file
 * Polling-mode RX driver.
 *
 * RxQueue is the DPDK PMD: it arms the NIC's descriptor ring with
 * mempool buffers, polls descriptors for the DD bit, hands completed
 * mbufs to the network function in bursts (default 32), and re-arms
 * consumed descriptors. Every descriptor read, mbuf-metadata write,
 * free-list touch, and descriptor re-arm is charged to the owning
 * core through the cache hierarchy, so driver-induced cache traffic
 * (a real contributor to the paper's MLC writeback rates) is modelled.
 */

#ifndef IDIO_DPDK_RX_QUEUE_HH
#define IDIO_DPDK_RX_QUEUE_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "dpdk/mbuf.hh"
#include "nic/nic.hh"
#include "sim/types.hh"
#include "trace/tracer.hh"

namespace ckpt
{
class Serializer;
class Deserializer;
}

namespace dpdk
{

/** PMD tuning. */
struct PmdConfig
{
    /** RX burst size (DPDK default 32). */
    std::uint32_t burst = 32;

    /** MMIO doorbell cost for the tail update, ns. */
    double tailUpdateNs = 30.0;
};

/** Result of one poll. */
struct PollResult
{
    std::vector<std::uint32_t> mbufs; ///< completed mbuf indices
    sim::Tick latency = 0;            ///< CPU time the poll consumed
};

/**
 * The polling-mode RX queue bound to one core and one NIC port.
 */
class RxQueue
{
  public:
    /**
     * @param queueIdx RX queue of @p port this PMD polls (multi-queue
     *                 ports pair one RxQueue per ring; default 0 is
     *                 the legacy single-ring binding).
     */
    RxQueue(cpu::Core &core, nic::Nic &port, Mempool &pool,
            const PmdConfig &config = {}, std::uint32_t queueIdx = 0);

    /**
     * Arm every descriptor with a fresh buffer (driver start-up).
     * Performed outside simulated time.
     */
    void initialArm();

    /**
     * Check the ring for completed descriptors and consume up to a
     * burst of them.
     */
    PollResult pollBurst();

    /**
     * Re-arm consumed descriptors with fresh buffers and ring the
     * tail doorbell. @return CPU latency.
     */
    sim::Tick refill();

    Mempool &mempool() { return pool; }
    nic::Nic &port() { return nicPort; }

    /** RX queue index this PMD is bound to. */
    std::uint32_t queueIndex() const { return qIdx; }

    /** Descriptors waiting to be re-armed. */
    std::uint32_t pendingRefill() const { return toRefill; }

    /**
     * @{ Checkpoint the driver cursors (embedded in the owning NF's
     * section; the queue is not a SimObject).
     */
    void serialize(ckpt::Serializer &s) const;
    void unserialize(ckpt::Deserializer &d);
    /** @} */

  private:
    cpu::Core &core;
    nic::Nic &nicPort;
    Mempool &pool;
    PmdConfig cfg;
    std::uint32_t qIdx;
    trace::Source trc;
    std::uint32_t armNext = 0; ///< next ring index to re-arm
    std::uint32_t toRefill = 0;
    sim::Tick tailUpdateCost;
};

} // namespace dpdk

#endif // IDIO_DPDK_RX_QUEUE_HH
