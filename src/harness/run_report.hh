/**
 * @file
 * The one report of a finished run, and its one writer.
 *
 * Every file that carries a run's results is written from a RunReport
 * under one schema version:
 *  - a bench's --json=FILE: {"bench", "schemaVersion", "runs":
 *    [{"label", "policy", "partition", "rateGbps", "seed", <report>}]};
 *  - a trace's FILE.totals.json sidecar: {"schemaVersion", <report>},
 *    which tools/trace_summary.py --check-totals cross-checks against
 *    the trace FILE.
 *
 * The report holds simulated facts only, nothing that depends on the
 * host or the build (job counts, wall time, build flags, checker
 * counters): the golden cases check these files byte for byte in
 * every build tree and at every --jobs.
 */

#ifndef IDIO_HARNESS_RUN_REPORT_HH
#define IDIO_HARNESS_RUN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/system.hh"

namespace harness
{

/**
 * Bump whenever a field is renamed, removed or changes meaning;
 * tools/trace_summary.py refuses a sidecar of another version.
 * (Version 1 was the sidecar's layout before the benches shared it.)
 */
constexpr std::uint32_t reportSchemaVersion = 2;

/** Everything a finished run reports. */
struct RunReport
{
    Totals totals;

    /** @{ Inbound placement: one outcome per DMA-written line. */
    std::uint64_t pcieWrites = 0;
    std::uint64_t ddioUpdates = 0;
    std::uint64_t ddioAllocs = 0;
    std::uint64_t directDramWrites = 0;
    std::uint64_t mlcPrefetchFills = 0; ///< over every MLC
    std::uint64_t mlcSelfInvals = 0;    ///< over every MLC
    /** @} */

    /**
     * Burst processing time: from the burst start (tick 0, when
     * start() launches the generators) until the NFs drain. A run to
     * a horizon reports the horizon.
     */
    sim::Tick execTime = 0;

    /** NF 0's per-packet latency percentiles, ticks. */
    sim::Tick p50 = 0;
    sim::Tick p99 = 0;

    /** The first antagonist's CPI proxy (0 without one). */
    double antagonistTpa = 0.0;

    /** Per-tenant slices, in tenant order (empty outside tenant mode). */
    std::vector<TenantTotals> tenants;

    /** @{ The IOCA controller's activity (0 without one). */
    std::uint64_t iocaEvaluations = 0;
    std::uint64_t iocaReallocations = 0;
    /** @} */

    /** Trace events lost to ring wraparound (0 untraced). */
    std::uint64_t traceDropped = 0;

    bool operator==(const RunReport &o) const = default;
};

/** The report of @p system, a run that took @p execTime. */
RunReport captureReport(TestSystem &system, sim::Tick execTime);

/** One run of a bench's report file: its row identity and report. */
struct ReportRow
{
    std::string label;
    const ExperimentConfig &cfg;
    const RunReport &report;
};

/** @{ Write a bench's runs, or one report as a sidecar; fatal on error. */
void writeReportFile(const std::string &path, const std::string &bench,
                     const std::vector<ReportRow> &rows);
void writeReportSidecar(const std::string &path,
                        const RunReport &report);
/** @} */

/**
 * Enable event tracing on @p system (call before start()).
 *
 * @param eventsPerSource Per-source ring capacity; the default holds
 *        a full single-burst bench run without wraparound.
 */
void enableTracing(TestSystem &system,
                   std::size_t eventsPerSource = 1u << 18);

/**
 * Write the trace of @p system, a finished run that took @p execTime,
 * to @p path (Chrome trace-event JSON: open it in Perfetto or
 * chrome://tracing) and its report to the sidecar @p path`.totals.json`.
 * Fatal when a file cannot be written.
 */
void writeTraceArtifacts(const std::string &path, TestSystem &system,
                         sim::Tick execTime);

} // namespace harness

#endif // IDIO_HARNESS_RUN_REPORT_HH
