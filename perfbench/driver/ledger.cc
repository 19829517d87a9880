/**
 * @file
 * Per-layer counters and the clone probe.
 */

#include "ledger.hh"

#include <functional>

#include "gen/traffic.hh"
#include "stats/registry.hh"

namespace perfbench
{

namespace
{

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::string suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool
contains(const std::string &s, const char *part)
{
    return s.find(part) != std::string::npos;
}

/**
 * The ledger counter a registry stat feeds, identified by its
 * component (group) and stat name; kCounterCount for none.
 */
Counter
classify(const std::string &group, const std::string &stat)
{
    if (stat == "packetsProcessed")
        return kProcessed;
    if (stat == "pcieWrites")
        return kPcieWrites;
    if (endsWith(group, ".mlc")) {
        if (stat == "misses")
            return kMlcMisses;
        if (stat == "backInvals")
            return kDirBackInvals;
    }
    if (endsWith(group, ".llc") && stat == "victimInserts")
        return kLlcVictimInserts;
    if (endsWith(group, ".dir") && stat == "lookups")
        return kDirLookups;
    if (endsWith(group, ".core")) {
        if (stat == "reads")
            return kCoreReads;
        if (stat == "writes")
            return kCoreWrites;
        if (stat == "invalidations")
            return kCoreInvals;
    }
    if (stat == "emptyPolls")
        return kEmptyPolls;
    if (stat == "batches")
        return kBatches;
    if (endsWith(group, ".dma") &&
        (stat == "linesWritten" || stat == "linesRead"))
        return kDmaLines;
    if (stat == "headerHints" || stat == "payloadHints")
        return kIdioHints;
    if (contains(group, ".prefetcher")) {
        if (stat == "issued")
            return kPfIssued;
        if (stat == "fills")
            return kPfFills;
        if (stat == "hintsReceived")
            return kHintsReceived;
        if (stat == "hintsDropped")
            return kHintsDropped;
    }
    if (endsWith(group, ".dram") && stat == "queuedTicks")
        return kDramQueuedTicks;
    if (stat == "reallocations")
        return kReallocations;
    return kCounterCount;
}

/** Time @p n calls of @p op as one span; returns host ns per call. */
double
timedBatch(SpanRecorder &spans, const char *name, std::size_t n,
           const std::function<void(std::size_t)> &op)
{
    if (n == 0)
        return 0.0;
    const std::int64_t t0 = nowNs();
    {
        ScopedSpan s(spans, name);
        for (std::size_t i = 0; i < n; ++i)
            op(i);
    }
    return static_cast<double>(nowNs() - t0) / static_cast<double>(n);
}

} // anonymous namespace

const std::vector<std::string> &
counterNames()
{
    static const std::vector<std::string> names = {
        "events",          "processed",       "pcie_writes",
        "mlc_misses",      "llc_victim_inserts", "dir_lookups",
        "dir_back_invals", "core_reads",      "core_writes",
        "core_invals",     "empty_polls",     "batches",
        "dma_lines",       "idio_hints",      "pf_issued",
        "pf_fills",        "hints_received",  "hints_dropped",
        "dram_queued_ticks", "reallocations", "mbuf_allocs"};
    return names;
}

CounterSet::CounterSet(harness::TestSystem &system) : sys(system)
{
    sys.simulation().statsRegistry().forEach(
        [this](const stats::StatGroup &g, const stats::Stat &s) {
            const Counter c = classify(g.name(), s.name());
            if (c != kCounterCount)
                sources[c].push_back(&s);
        });
}

Snapshot
CounterSet::snapshot() const
{
    Snapshot snap{};
    for (unsigned c = 0; c < kCounterCount; ++c)
        for (const stats::Stat *s : sources[c])
            snap[c] += s->value();
    snap[kEvents] =
        static_cast<double>(sys.simulation().totalProcessedEvents());
    double allocs = 0.0;
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i)
        allocs += static_cast<double>(sys.mempool(i).allocCount);
    snap[kMbufAllocs] = allocs;
    return snap;
}

ProbeResult
probeClone(harness::TestSystem &measured,
           const harness::ExperimentConfig &cfg, SpanRecorder &spans)
{
    ProbeResult r;
    ScopedSpan probeSpan(spans, "probe");

    std::int64_t t0 = nowNs();
    std::vector<std::uint8_t> blob;
    {
        ScopedSpan s(spans, "checkpoint");
        blob = measured.checkpoint();
    }
    r.saveMs = static_cast<double>(nowNs() - t0) / 1e6;
    r.blobKb = static_cast<double>(blob.size()) / 1024.0;

    std::unique_ptr<harness::TestSystem> clone;
    {
        ScopedSpan s(spans, "construct");
        clone = std::make_unique<harness::TestSystem>(cfg);
    }
    {
        ScopedSpan s(spans, "start");
        clone->start();
    }
    t0 = nowNs();
    {
        ScopedSpan s(spans, "restore");
        clone->restore(blob);
    }
    r.restoreMs = static_cast<double>(nowNs() - t0) / 1e6;

    // The clone's own packet-buffer lines: every cacheline of every
    // mbuf data buffer of the first NF's pool, up to a fixed count.
    constexpr std::size_t maxLines = 16384;
    std::vector<sim::Addr> lines;
    dpdk::Mempool &pool = clone->mempool(0);
    const std::uint32_t lineCount = (cfg.frameBytes + 63) / 64;
    for (std::uint32_t b = 0;
         b < pool.capacity() && lines.size() < maxLines; ++b)
        for (std::uint32_t l = 0; l < lineCount && lines.size() < maxLines;
             ++l)
            lines.push_back(pool.at(b).dataAddr + 64ull * l);

    // One packet's lifecycle per line, in order: DMA write, IDIO
    // prefetch into the MLC, core read, core write, self-invalidate.
    cache::MemoryHierarchy &h = clone->hierarchy();
    const sim::CoreId core = 0;
    const std::size_t n = lines.size();
    r.pcieWriteNs = timedBatch(spans, "probe.pcieWrite", n,
                               [&](std::size_t i) { h.pcieWrite(lines[i]); });
    r.mlcPrefetchNs =
        timedBatch(spans, "probe.mlcPrefetch", n, [&](std::size_t i) {
            h.mlcPrefetch(core, lines[i]);
        });
    r.coreReadNs =
        timedBatch(spans, "probe.coreRead", n, [&](std::size_t i) {
            h.coreRead(core, lines[i]);
        });
    r.coreWriteNs =
        timedBatch(spans, "probe.coreWrite", n, [&](std::size_t i) {
            h.coreWrite(core, lines[i]);
        });
    r.invalidateLineNs =
        timedBatch(spans, "probe.invalidate", n, [&](std::size_t i) {
            h.coreInvalidate(core, lines[i]);
        });

    // NIC ingress: packets on the flows the first port already
    // carries (the legacy layout's EP-rule flows, or the synthetic RSS
    // population of the multi-queue layout).
    constexpr std::size_t deliveries = 256;
    const auto flows = gen::makeFlows(cfg.flowsPerNf, 5000);
    nic::Nic &port = clone->nicPort(0);
    const sim::Tick now = clone->simulation().now();
    r.deliverNs = timedBatch(spans, "probe.deliver", deliveries,
                             [&](std::size_t i) {
                                 net::Packet p;
                                 p.flow = cfg.multiQueue()
                                              ? gen::synthFlowTuple(i)
                                              : flows[i % flows.size()]
                                                    .tuple;
                                 p.frameBytes = cfg.frameBytes;
                                 p.seq = i;
                                 p.genTime = now;
                                 port.deliver(p);
                             });

    {
        ScopedSpan s(spans, "destroy");
        clone.reset();
    }
    r.done = true;
    return r;
}

} // namespace perfbench
