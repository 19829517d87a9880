/**
 * @file
 * Per-layer ledger of the traced run, measured from outside the
 * simulator.
 *
 * Counters are read from each system's stats registry (plus the
 * mempools' plain counters and the simulation's event count) at the
 * benchmark's call boundaries; the layer is identified by the
 * component and stat name. Host time per call of the cache and NIC
 * public operations is measured on a clone: a second system restored
 * from a mid-run checkpoint, so the measured system is never probed.
 */

#ifndef IDIO_PERFBENCH_DRIVER_LEDGER_HH
#define IDIO_PERFBENCH_DRIVER_LEDGER_HH

#include <array>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "spans.hh"

namespace perfbench
{

/** Counters the ledger tracks, one slot each in a snapshot. */
enum Counter : unsigned
{
    kEvents,          ///< events processed (all queues)
    kProcessed,       ///< packets retired by the NFs
    kPcieWrites,      ///< inbound DMA cacheline writes (hierarchy)
    kMlcMisses,       ///< MLC demand misses, all cores
    kLlcVictimInserts,///< LLC allocations by MLC evictions
    kDirLookups,      ///< directory lookups
    kDirBackInvals,   ///< MLC lines back-invalidated by the directory
    kCoreReads,       ///< cacheline reads issued by cores
    kCoreWrites,      ///< cacheline writes issued by cores
    kCoreInvals,      ///< self-invalidate lines issued by cores
    kEmptyPolls,      ///< PMD polls that found no packet
    kBatches,         ///< PMD polls that found packets
    kDmaLines,        ///< NIC DMA cachelines written + read
    kIdioHints,       ///< IDIO header + payload prefetch hints
    kPfIssued,        ///< prefetches sent to the LLC
    kPfFills,         ///< prefetches that filled an MLC
    kHintsReceived,   ///< hints reaching the prefetchers
    kHintsDropped,    ///< hints dropped on a full queue
    kDramQueuedTicks, ///< DRAM queueing delay, ticks
    kReallocations,   ///< IOCA way reallocations
    kMbufAllocs,      ///< mbufs taken from the mempools
    kCounterCount
};

/** Stable names of the counters, indexed by Counter. */
const std::vector<std::string> &counterNames();

using Snapshot = std::array<double, kCounterCount>;

/** Resolved counter sources of one system. */
class CounterSet
{
  public:
    explicit CounterSet(harness::TestSystem &system);

    Snapshot snapshot() const;

  private:
    harness::TestSystem &sys;
    std::array<std::vector<const stats::Stat *>, kCounterCount> sources;
};

/** Host time per call of each probed public operation. */
struct ProbeResult
{
    bool done = false;
    double pcieWriteNs = 0.0;
    double coreReadNs = 0.0;
    double coreWriteNs = 0.0;
    double mlcPrefetchNs = 0.0;
    double invalidateLineNs = 0.0;
    double deliverNs = 0.0;
    double saveMs = 0.0;
    double restoreMs = 0.0;
    double blobKb = 0.0;
};

/**
 * Checkpoint @p measured (a started system between runFor calls),
 * build a clone from @p cfg, restore the checkpoint into it, and time
 * the cache and NIC public operations on the clone over the clone's
 * own mempool buffer addresses. Every call is recorded as a span.
 */
ProbeResult probeClone(harness::TestSystem &measured,
                       const harness::ExperimentConfig &cfg,
                       SpanRecorder &spans);

} // namespace perfbench

#endif // IDIO_PERFBENCH_DRIVER_LEDGER_HH
