/**
 * @file
 * RunReport capture, the one report writer and trace artifacts.
 */

#include "run_report.hh"

#include <fstream>

#include "stats/json.hh"
#include "trace/chrome_export.hh"

namespace harness
{

namespace
{

/** Write @p r's fields into the JSON object @p w has open. */
void
writeReport(stats::JsonWriter &w, const RunReport &r)
{
    const Totals &t = r.totals;
    w.field("rxPackets", t.rxPackets);
    w.field("rxDrops", t.rxDrops);
    w.field("processedPackets", t.processedPackets);
    w.field("mlcWritebacks", t.mlcWritebacks);
    w.field("nfMlcWritebacks", t.nfMlcWritebacks);
    w.field("mlcPcieInvals", t.mlcPcieInvals);
    w.field("llcWritebacks", t.llcWritebacks);
    w.field("dramReads", t.dramReads);
    w.field("dramWrites", t.dramWrites);
    w.field("pcieWrites", r.pcieWrites);
    w.field("ddioUpdates", r.ddioUpdates);
    w.field("ddioAllocs", r.ddioAllocs);
    w.field("directDramWrites", r.directDramWrites);
    w.field("mlcPrefetchFills", r.mlcPrefetchFills);
    w.field("mlcSelfInvals", r.mlcSelfInvals);
    w.field("execTimeUs", sim::ticksToUs(r.execTime));
    w.field("p50Us", sim::ticksToUs(r.p50));
    w.field("p99Us", sim::ticksToUs(r.p99));
    w.field("antagonistTpa", r.antagonistTpa);
    w.field("iocaEvaluations", r.iocaEvaluations);
    w.field("iocaReallocations", r.iocaReallocations);
    w.field("traceDropped", r.traceDropped);
    w.beginArray("tenants");
    for (const TenantTotals &tt : r.tenants) {
        w.beginObject();
        w.field("name", tt.name);
        w.field("slo", tenant::sloClassName(tt.slo));
        w.field("antagonist", tt.antagonist);
        w.beginArray("cores");
        for (const sim::CoreId c : tt.cores)
            w.value(static_cast<std::uint64_t>(c));
        w.end();
        w.field("ways", tt.ways);
        w.field("rxPackets", tt.rxPackets);
        w.field("rxDrops", tt.rxDrops);
        w.field("processedPackets", tt.processedPackets);
        w.field("mlcWritebacks", tt.mlcWritebacks);
        w.field("p50Us", sim::ticksToUs(tt.p50));
        w.field("p99Us", sim::ticksToUs(tt.p99));
        w.field("p999Us", sim::ticksToUs(tt.p999));
        w.end();
    }
    w.end();
}

/** @p path opened for a report file; fatal when it cannot be. */
std::ofstream
openReport(const std::string &path)
{
    std::ofstream ofs(path);
    if (!ofs)
        sim::fatal("cannot write report file '%s'", path.c_str());
    return ofs;
}

} // anonymous namespace

RunReport
captureReport(TestSystem &system, sim::Tick execTime)
{
    RunReport r;
    r.totals = system.totals();

    cache::MemoryHierarchy &hier = system.hierarchy();
    r.pcieWrites = hier.pcieWrites.get();
    r.ddioUpdates = hier.llc().ddioUpdates.get();
    r.ddioAllocs = hier.llc().ddioAllocs.get();
    r.directDramWrites = hier.directDramWrites.get();
    for (std::uint32_t c = 0; c < hier.numCores(); ++c) {
        r.mlcPrefetchFills += hier.mlcOf(c).prefetchFills.get();
        r.mlcSelfInvals += hier.mlcOf(c).selfInvals.get();
    }

    r.execTime = execTime;
    if (system.numNfs() > 0) {
        r.p50 = system.nf(0).latency.p50();
        r.p99 = system.nf(0).latency.p99();
    }
    if (!system.antagonists().empty())
        r.antagonistTpa = system.antagonists().front()->ticksPerAccess();

    r.tenants = system.tenantTotals();
    if (const tenant::IocaController *ioca = system.iocaController()) {
        r.iocaEvaluations = ioca->evaluations.get();
        r.iocaReallocations = ioca->reallocations.get();
    }
    r.traceDropped = system.simulation().tracer().totalDropped();
    return r;
}

void
writeReportFile(const std::string &path, const std::string &bench,
                const std::vector<ReportRow> &rows)
{
    std::ofstream ofs = openReport(path);
    stats::JsonWriter w(ofs);
    w.beginObject();
    w.field("bench", bench);
    w.field("schemaVersion", reportSchemaVersion);
    w.beginArray("runs");
    for (const ReportRow &row : rows) {
        w.beginObject();
        w.field("label", row.label);
        w.field("policy", idio::policyName(row.cfg.idio.policy));
        w.field("partition", tenantPartitionName(row.cfg.tenantPartition));
        w.field("rateGbps", row.cfg.rateGbps);
        w.field("seed", row.cfg.seed);
        writeReport(w, row.report);
        w.end();
    }
    w.end();
    w.end();
    ofs << "\n";
}

void
writeReportSidecar(const std::string &path, const RunReport &report)
{
    std::ofstream ofs = openReport(path);
    stats::JsonWriter w(ofs);
    w.beginObject();
    w.field("schemaVersion", reportSchemaVersion);
    writeReport(w, report);
    w.end();
    ofs << "\n";
}

void
enableTracing(TestSystem &system, std::size_t eventsPerSource)
{
    trace::Tracer &tracer = system.simulation().tracer();
    tracer.setCapacity(eventsPerSource);
    tracer.enable();
}

void
writeTraceArtifacts(const std::string &path, TestSystem &system,
                    sim::Tick execTime)
{
    if (!trace::writeChromeTrace(path, system.simulation().tracer()))
        sim::fatal("cannot write trace file '%s'", path.c_str());
    writeReportSidecar(path + ".totals.json",
                       captureReport(system, execTime));
}

} // namespace harness
