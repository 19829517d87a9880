/**
 * @file
 * Machine plan derivation.
 */

#include "machine_plan.hh"

#include "sim/logging.hh"

namespace harness
{

namespace
{

/** MLC size of an aggressor core (paper: 256 KB). */
constexpr std::uint64_t aggressorMlcBytes = 256 * 1024;

void
validateTenants(const ExperimentConfig &cfg)
{
    if (cfg.multiQueue())
        sim::fatal("tenant mode needs the legacy layout (rxQueues == "
                   "0): per-tenant NF kinds, rates and flow ranges "
                   "ride the per-core ports");
    if (cfg.withAntagonist)
        sim::fatal("tenant mode models aggressors as antagonist "
                   "tenants; drop withAntagonist");
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantSpec &spec = cfg.tenants[i];
        if (spec.name.empty())
            sim::fatal("tenant %zu has no name", i);
        if (spec.cores == 0)
            sim::fatal("tenant '%s' has no cores", spec.name.c_str());
        if (!(spec.rateGbps >= 0.0))
            sim::fatal("tenant '%s' has rateGbps %g (use > 0, or 0 "
                       "for the run-wide rate)",
                       spec.name.c_str(), spec.rateGbps);
        for (std::size_t j = 0; j < i; ++j)
            if (cfg.tenants[j].name == spec.name)
                sim::fatal("duplicate tenant name '%s'",
                           spec.name.c_str());
    }
}

} // anonymous namespace

cache::HierarchyConfig
MachinePlan::hierarchy(const cache::HierarchyConfig &base) const
{
    cache::HierarchyConfig hier = base;
    hier.numCores = numCores;
    for (const AggressorPlan &a : aggressors) {
        hier.mlcSizeOverride.resize(numCores, 0);
        hier.mlcSizeOverride[a.core] = aggressorMlcBytes;
    }
    return hier;
}

MachinePlan
planMachine(const ExperimentConfig &cfg)
{
    MachinePlan plan;
    auto addPort = [&](std::string name, std::uint32_t numQueues,
                       NfKind kind, TrafficKind traffic, double rateGbps,
                       sim::Tick stopAt) {
        // Class-1 marking follows the NF kind on the port's cores.
        const std::uint8_t dscp = kind == NfKind::L2FwdDropPayload ? 40 : 0;
        // The multi-queue layout's port spreads a synthetic population
        // over its queues by RSS; a per-core port carries its own
        // flow list.
        std::uint64_t synthFlows = 0;
        if (cfg.multiQueue())
            synthFlows = cfg.totalFlows
                             ? cfg.totalFlows
                             : std::uint64_t(cfg.flowsPerNf) * numQueues;
        plan.ports.push_back({std::move(name), plan.numCores, numQueues,
                              synthFlows, kind, traffic, rateGbps, stopAt,
                              dscp});
        plan.numCores += numQueues;
    };

    if (!cfg.tenantMode()) {
        if (cfg.multiQueue()) {
            if (cfg.rxQueues != cfg.numNfs)
                sim::fatal("multi-queue layout needs rxQueues == numNfs "
                           "(%u != %u): each ring is polled by exactly "
                           "one core",
                           cfg.rxQueues, cfg.numNfs);
            addPort("system.port0", cfg.numNfs, cfg.nfKind,
                    cfg.traffic, cfg.rateGbps, sim::maxTick);
        } else {
            for (sim::CoreId c = 0; c < cfg.numNfs; ++c)
                addPort("system.nf" + std::to_string(c), 1, cfg.nfKind,
                        cfg.traffic, cfg.rateGbps, sim::maxTick);
        }
        if (cfg.withAntagonist)
            plan.aggressors.push_back({"system.antag", plan.numCores++});
        return plan;
    }

    validateTenants(cfg);
    std::uint32_t nfCores = 0;
    for (const TenantSpec &spec : cfg.tenants)
        nfCores += spec.antagonist ? 0 : spec.cores;
    if (nfCores == 0)
        sim::fatal("tenant mode needs at least one NF tenant core");
    sim::CoreId aggressorCore = nfCores;
    for (const TenantSpec &spec : cfg.tenants) {
        tenant::Tenant t;
        t.name = spec.name;
        t.slo = spec.slo;
        t.antagonist = spec.antagonist;
        for (std::uint32_t k = 0; k < spec.cores; ++k) {
            if (spec.antagonist) {
                t.cores.push_back(aggressorCore);
                plan.aggressors.push_back(
                    {"system." + spec.name + ".antag" + std::to_string(k),
                     aggressorCore++});
                continue;
            }
            const sim::CoreId c = plan.numCores;
            t.cores.push_back(c);
            addPort("system.nf" + std::to_string(c), 1, spec.nfKind,
                    spec.traffic,
                    spec.rateGbps > 0.0 ? spec.rateGbps : cfg.rateGbps,
                    spec.stopAt);
        }
        plan.tenants.push_back(std::move(t));
    }
    plan.numCores = aggressorCore;
    return plan;
}

} // namespace harness
