/**
 * @file
 * Noisy-neighbor tenant mix: per-tenant throughput and tail latency
 * under LLC-sharing pressure, for three LLC management schemes on
 * the identical scenario and seed:
 *
 *   ddio  — plain DDIO, all tenants share the non-I/O ways.
 *   idio  — IDIO's adaptive I/O policy, still no tenant isolation.
 *   ioca  — DDIO plus CAT way partitioning driven by the IOCA-style
 *           adaptive controller (tenant::IocaController).
 *
 * The scenario is a three-tenant mix exercising every SLO class:
 *
 *   rpc   — latency-critical, 1 core, steady 10 Gbps TouchDrop (an
 *           RPC-like NF whose p99/p99.9 is the headline metric).
 *   batch — throughput class, 2 cores, bursty 100 Gbps TouchDrop;
 *           departs at 300 us (tenant churn — the controller must
 *           re-converge after its load disappears).
 *   antag — best-effort antagonist tenant: one aggressor core running
 *           an LLC-thrashing scan (nf::LlcAntagonist) and no NF.
 *
 * The run is a fixed 600 us horizon (bench::runLoop), so every
 * scheme sees the identical packet arrivals and the output JSON is
 * bit-identical across repeated runs and a mid-burst
 * checkpoint/restore (the golden tenant_mix cases rely on this —
 * keep host-dependent fields out of the JSON).
 */

#include <iostream>

#include "common.hh"
#include "tenant_scenario.hh"

namespace
{

constexpr sim::Tick horizon = bench::tenantHorizon;

using bench::tenantSchemes;

/** Everything one scheme run reports. */
struct MixRun
{
    std::vector<harness::TenantTotals> tenants;
    std::uint64_t reallocations = 0;
    std::uint64_t evaluations = 0;
};

/**
 * Fixed-horizon run. The FIRST scheme honours --trace, --checkpoint
 * and --restore; saving reads state only, so the reported numbers are
 * unchanged.
 */
MixRun
runMix(const harness::ExperimentConfig &cfg,
       const bench::BenchOptions &opts, bool first)
{
    harness::TestSystem sys(cfg);
    const bool tracing = first && !opts.tracePath.empty();
    if (tracing) {
        // The antagonist's LLC thrashing makes the shared cache
        // source far hotter than a plain burst run; size the ring so
        // trace_summary.py's exact cross-check sees zero truncation.
        harness::enableTracing(sys, 1u << 20);
    }
    sys.start();

    bench::RunLoop loop{.horizon = horizon};
    if (first) {
        loop.restorePath = opts.restorePath;
        loop.checkpointPath = opts.checkpointPath;
    }
    bench::runLoop(sys, loop);

    MixRun r;
    r.tenants = sys.tenantTotals();
    if (sys.iocaController()) {
        r.reallocations = sys.iocaController()->reallocations.get();
        r.evaluations = sys.iocaController()->evaluations.get();
    }
    if (tracing)
        harness::writeTraceArtifacts(opts.tracePath, sys);
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // One scheme after another, on the fixed tenant layout: no
    // --jobs, --cores or --warm-start.
    const auto opts = bench::parseBenchOptions(
        argc, argv,
        bench::flagJson | bench::flagTrace | bench::flagSeed |
            bench::flagCheckpoint | bench::flagRestore);

    std::printf("=== Tenant mix: noisy-neighbor isolation, "
                "%zu schemes on one scenario ===\n",
                std::size(tenantSchemes));
    bench::printConfigEcho(bench::tenantMixConfig(tenantSchemes[0]));

    std::vector<harness::ExperimentConfig> cfgs;
    for (const bench::TenantScheme &s : tenantSchemes) {
        cfgs.push_back(bench::tenantMixConfig(s));
        if (opts.seed)
            cfgs.back().seed = *opts.seed;
    }

    std::vector<MixRun> runs;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        runs.push_back(runMix(cfgs[i], opts, i == 0));

    stats::TablePrinter table({"config", "tenant", "slo", "ways", "rx",
                               "drops", "processed", "p99 us",
                               "p99.9 us"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        for (std::size_t t = 0; t < runs[i].tenants.size(); ++t) {
            const harness::TenantTotals &tt = runs[i].tenants[t];
            const harness::TenantSpec &spec = cfgs[i].tenants[t];
            table.addRow(
                {tenantSchemes[i].label, tt.name,
                 tenant::sloClassName(spec.slo),
                 std::to_string(tt.ways),
                 std::to_string(tt.rxPackets),
                 std::to_string(tt.rxDrops),
                 std::to_string(tt.processedPackets),
                 stats::TablePrinter::num(sim::ticksToUs(tt.p99), 2),
                 stats::TablePrinter::num(sim::ticksToUs(tt.p999),
                                          2)});
        }
    }
    table.print(std::cout);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (tenantSchemes[i].partition != harness::TenantPartition::Ioca)
            continue;
        std::printf("\n%s controller: %llu evaluations, %llu way "
                    "reallocations\n",
                    tenantSchemes[i].label,
                    (unsigned long long)runs[i].evaluations,
                    (unsigned long long)runs[i].reallocations);
    }

    // Machine-readable rows. Deliberately free of host-dependent
    // fields (job counts, timings): the golden tenant_mix cases check
    // this file against one digest across checkpoint/restore.
    if (!opts.jsonPath.empty()) {
        std::ofstream ofs(opts.jsonPath);
        if (!ofs)
            sim::fatal("cannot open JSON output file '%s'",
                       opts.jsonPath.c_str());
        stats::JsonWriter w(ofs);
        w.beginObject();
        w.field("bench", "tenant_mix");
        w.field("horizonUs", sim::ticksToUs(horizon));
        w.field("seed", cfgs[0].seed);
        w.beginArray("configs");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            w.beginObject();
            w.field("config", tenantSchemes[i].label);
            w.field("policy", idio::policyName(tenantSchemes[i].policy));
            w.field("partition",
                    harness::tenantPartitionName(
                        tenantSchemes[i].partition));
            w.field("evaluations", runs[i].evaluations);
            w.field("reallocations", runs[i].reallocations);
            w.beginArray("tenants");
            for (std::size_t t = 0; t < runs[i].tenants.size(); ++t) {
                const harness::TenantTotals &tt = runs[i].tenants[t];
                const harness::TenantSpec &spec = cfgs[i].tenants[t];
                w.beginObject();
                w.field("tenant", tt.name);
                w.field("slo", tenant::sloClassName(spec.slo));
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
            w.end(); // tenants
            w.end(); // config object
        }
        w.end(); // configs
        w.end(); // top-level
        ofs << "\n";
        std::printf("\n# JSON rows written to %s\n",
                    opts.jsonPath.c_str());
    }

    return 0;
}
