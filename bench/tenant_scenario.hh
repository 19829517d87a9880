/**
 * @file
 * The canonical multi-tenant noisy-neighbor scenario, shared by
 * bench/tenant_mix.cc (the full per-tenant report), perfbench's
 * tenant_mix workload and the PinnedWork tests (the exact tenant
 * headline numbers).
 *
 * Three tenants covering every SLO class on one socket:
 *
 *   rpc   — latency-critical, 1 core, steady 10 Gbps TouchDrop.
 *   batch — throughput class, 2 cores, bursty 100 Gbps TouchDrop,
 *           departing at tenantBatchStop (tenant churn).
 *   antag — best-effort antagonist: one LLC-thrashing aggressor core.
 *
 * Three LLC-management schemes run the identical scenario and seed:
 * plain DDIO sharing, IDIO's adaptive policy, and DDIO plus CAT way
 * partitioning under the IOCA-style controller.
 */

#ifndef IDIO_BENCH_TENANT_SCENARIO_HH
#define IDIO_BENCH_TENANT_SCENARIO_HH

#include "harness/experiment_config.hh"

namespace bench
{

/** Fixed measurement horizon (a burstQuantum multiple). */
constexpr sim::Tick tenantHorizon = 600 * sim::oneUs;

/** The batch tenant departs here (tenant churn). */
constexpr sim::Tick tenantBatchStop = 300 * sim::oneUs;

/** One LLC-management scheme measured on the shared scenario. */
struct TenantScheme
{
    const char *label;
    idio::Policy policy;
    harness::TenantPartition partition;
};

constexpr TenantScheme tenantSchemes[] = {
    {"ddio", idio::Policy::Ddio, harness::TenantPartition::None},
    {"idio", idio::Policy::Idio, harness::TenantPartition::None},
    {"ioca", idio::Policy::Ddio, harness::TenantPartition::Ioca},
};

inline harness::ExperimentConfig
tenantMixConfig(const TenantScheme &scheme)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(scheme.policy);
    cfg.tenantPartition = scheme.partition;
    cfg.burstPeriod = 100 * sim::oneUs; // batch bursts every 100 us
    cfg.rateGbps = 100.0;

    harness::TenantSpec rpc;
    rpc.name = "rpc";
    rpc.slo = tenant::SloClass::LatencyCritical;
    rpc.cores = 1;
    rpc.traffic = harness::TrafficKind::Steady;
    rpc.rateGbps = 10.0;

    harness::TenantSpec batch;
    batch.name = "batch";
    batch.slo = tenant::SloClass::Throughput;
    batch.cores = 2;
    batch.traffic = harness::TrafficKind::Bursty;
    batch.stopAt = tenantBatchStop;

    harness::TenantSpec antag;
    antag.name = "antag";
    antag.slo = tenant::SloClass::BestEffort;
    antag.cores = 1;
    antag.antagonist = true;

    cfg.tenants = {rpc, batch, antag};
    return cfg;
}

} // namespace bench

#endif // IDIO_BENCH_TENANT_SCENARIO_HH
