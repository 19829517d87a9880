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

using bench::tenantSchemes;

/**
 * Fixed-horizon run. The FIRST scheme honours --trace, --checkpoint
 * and --restore; saving reads state only, so the reported numbers are
 * unchanged.
 */
harness::RunReport
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

    bench::RunLoop loop{.horizon = bench::tenantHorizon};
    if (first) {
        loop.restorePath = opts.restorePath;
        loop.checkpointPath = opts.checkpointPath;
    }
    const sim::Tick horizon = bench::runLoop(sys, loop);
    if (tracing)
        harness::writeTraceArtifacts(opts.tracePath, sys, horizon);
    return harness::captureReport(sys, horizon);
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

    std::vector<bench::SweepCase> cases;
    for (const bench::TenantScheme &s : tenantSchemes) {
        cases.push_back({s.label, bench::tenantMixConfig(s)});
        if (opts.seed)
            cases.back().cfg.seed = *opts.seed;
    }

    std::vector<harness::RunReport> runs;
    for (std::size_t i = 0; i < cases.size(); ++i)
        runs.push_back(runMix(cases[i].cfg, opts, i == 0));

    stats::TablePrinter table({"config", "tenant", "slo", "ways", "rx",
                               "drops", "processed", "p99 us",
                               "p99.9 us"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        for (const harness::TenantTotals &tt : runs[i].tenants) {
            table.addRow(
                {cases[i].label, tt.name, tenant::sloClassName(tt.slo),
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
                    (unsigned long long)runs[i].iocaEvaluations,
                    (unsigned long long)runs[i].iocaReallocations);
    }

    // The report holds no host-dependent field (job counts, timings):
    // the golden tenant_mix cases check this file against one digest
    // across checkpoint/restore and tracing.
    bench::maybeWriteJson(opts, "tenant_mix", cases, runs);
    if (!opts.jsonPath.empty()) {
        std::printf("\n# JSON rows written to %s\n",
                    opts.jsonPath.c_str());
    }

    return 0;
}
