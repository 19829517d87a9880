/**
 * @file
 * TestSystem implementation.
 */

#include "system.hh"

#include <algorithm>

#include "cache/invariants.hh"
#include "ckpt/checkpoint.hh"
#include "nf/copy_touch_drop.hh"
#include "nic/invariants.hh"
#include "stats/latency_recorder.hh"

#include "sim/logging.hh"

namespace harness
{

Totals
Totals::operator-(const Totals &o) const
{
    Totals d;
    d.mlcWritebacks = mlcWritebacks - o.mlcWritebacks;
    d.nfMlcWritebacks = nfMlcWritebacks - o.nfMlcWritebacks;
    d.mlcPcieInvals = mlcPcieInvals - o.mlcPcieInvals;
    d.llcWritebacks = llcWritebacks - o.llcWritebacks;
    d.dramReads = dramReads - o.dramReads;
    d.dramWrites = dramWrites - o.dramWrites;
    d.rxPackets = rxPackets - o.rxPackets;
    d.rxDrops = rxDrops - o.rxDrops;
    d.processedPackets = processedPackets - o.processedPackets;
    return d;
}

namespace
{

/** RETA entries of an RSS-steered port (power of two). */
constexpr std::uint32_t retaEntries = 128;

/** MLC size of an aggressor core (paper: 256 KB). */
constexpr std::uint64_t aggressorMlcBytes = 256 * 1024;

/** One NIC port of the machine plan. */
struct PortPlan
{
    std::string name;      ///< prefix of its NIC and generator
    sim::CoreId firstCore; ///< ring q is polled by NF core firstCore + q
    std::uint32_t numQueues;
    bool rss; ///< RSS over synthetic flows, else EP rules to firstCore
    NfKind nfKind;
    TrafficKind traffic;
    double rateGbps;
    sim::Tick stopAt;
    std::uint8_t dscp;
};

/** One aggressor core: an nf::LlcAntagonist on a shrunken MLC. */
struct AggressorPlan
{
    std::string name;
    sim::CoreId core;
};

/** The machine: NF cores first, in port order, then aggressors. */
struct MachinePlan
{
    std::uint32_t numCores = 0;
    std::vector<PortPlan> ports;
    std::vector<AggressorPlan> aggressors;
    std::vector<tenant::Tenant> tenants; ///< empty without cfg.tenants
};

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

/**
 * Derive the machine from cfg.tenants or, when that is empty, from
 * the run-wide fields describing the default tenant set: numNfs cores
 * of nfKind (a port each, or one port with rxQueues rings) plus the
 * withAntagonist aggressor.
 */
MachinePlan
planMachine(const ExperimentConfig &cfg)
{
    MachinePlan plan;
    auto addPort = [&](std::string name, std::uint32_t numQueues,
                       NfKind kind, TrafficKind traffic, double rateGbps,
                       sim::Tick stopAt) {
        // Class-1 marking follows the NF kind on the port's cores.
        const std::uint8_t dscp =
            kind == NfKind::L2FwdDropPayload && cfg.dscp < 32 ? 40
                                                              : cfg.dscp;
        plan.ports.push_back({std::move(name), plan.numCores, numQueues,
                              cfg.multiQueue(), kind, traffic, rateGbps,
                              stopAt, dscp});
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

} // anonymous namespace

TestSystem::TestSystem(const ExperimentConfig &config)
    : cfg(config), sim_(config.seed)
{
    MachinePlan plan = planMachine(cfg);

    // Hierarchy: aggressor MLC override, Invalidatable-page oracle.
    // The plan sets these three fields, so a config may not.
    const cache::HierarchyConfig planned;
    if (cfg.hier.numCores != planned.numCores ||
        !cfg.hier.mlcSizeOverride.empty() ||
        cfg.hier.pageAttributes != nullptr) {
        sim::fatal("hier.numCores, hier.mlcSizeOverride and "
                   "hier.pageAttributes follow the machine plan "
                   "(numNfs, rxQueues, tenants); leave them unset");
    }
    cache::HierarchyConfig hierCfg = cfg.hier;
    hierCfg.numCores = plan.numCores;
    for (const AggressorPlan &a : plan.aggressors) {
        hierCfg.mlcSizeOverride.resize(plan.numCores, 0);
        hierCfg.mlcSizeOverride[a.core] = aggressorMlcBytes;
    }
    hierCfg.pageAttributes = &alloc;
    hier = std::make_unique<cache::MemoryHierarchy>(sim_, "system",
                                                    hierCfg);

    ctrl = std::make_unique<idio::IdioController>(sim_, "system.idio",
                                                  *hier, cfg.idio);

    const bool selfInval = cfg.idio.selfInvalidate();

    // One NF core's worth of compute + driver machinery, bound to
    // ring `queue` of `port`.
    auto buildNfPipeline = [&](sim::CoreId i, nic::Nic &port,
                               std::uint32_t queue, NfKind kind) {
        const std::string base = "system.nf" + std::to_string(i);
        cores.push_back(std::make_unique<cpu::Core>(
            sim_, base + ".core", i, *hier));
        pools.push_back(std::make_unique<dpdk::Mempool>(
            alloc, cfg.nic.ringSize + cfg.mempoolExtra,
            dpdk::defaultBufBytes, /*invalidatable=*/true,
            cfg.recycleOrder));
        rxqs.push_back(std::make_unique<dpdk::RxQueue>(
            *cores.back(), port, *pools.back(), dpdk::PmdConfig{},
            queue));

        switch (kind) {
          case NfKind::TouchDrop:
            nfs.push_back(std::make_unique<nf::TouchDrop>(
                sim_, base, *cores.back(), *rxqs.back(), cfg.nf,
                selfInval));
            break;
          case NfKind::CopyTouchDrop:
            nfs.push_back(std::make_unique<nf::CopyTouchDrop>(
                sim_, base, *cores.back(), *rxqs.back(), cfg.nf,
                selfInval, alloc));
            break;
          case NfKind::L2Fwd:
            nfs.push_back(std::make_unique<nf::L2Fwd>(
                sim_, base, *cores.back(), *rxqs.back(), cfg.nf,
                selfInval));
            break;
          case NfKind::L2FwdDropPayload:
            nfs.push_back(std::make_unique<nf::L2FwdDropPayload>(
                sim_, base, *cores.back(), *rxqs.back(), cfg.nf,
                selfInval));
            break;
        }
    };

    auto buildGen = [&](const std::string &genName, nic::Nic &port,
                        const gen::TrafficConfig &tc, TrafficKind kind,
                        double rateGbps) {
        switch (kind) {
          case TrafficKind::Steady:
            gens.push_back(std::make_unique<gen::SteadyTrafficGen>(
                sim_, genName, port, tc, rateGbps));
            break;
          case TrafficKind::Bursty: {
            gen::BurstyTrafficGen::BurstParams bp;
            bp.burstPeriod = cfg.burstPeriod;
            bp.burstPackets = cfg.effectiveBurstPackets();
            bp.burstRateGbps = rateGbps;
            gens.push_back(std::make_unique<gen::BurstyTrafficGen>(
                sim_, genName, port, tc, bp));
            break;
          }
          case TrafficKind::Poisson:
            gens.push_back(std::make_unique<gen::PoissonTrafficGen>(
                sim_, genName, port, tc, rateGbps));
            break;
          case TrafficKind::None:
            break; // externally driven (e.g. trace replay)
        }
    };

    // Each port, then the pipelines on its rings, then its generator.
    for (const PortPlan &p : plan.ports) {
        nic::NicConfig nicCfg = cfg.nic;
        nicCfg.numQueues = p.numQueues;
        if (p.rss)
            nicCfg.rssTableEntries = retaEntries;
        nics.push_back(std::make_unique<nic::Nic>(
            sim_, p.name + ".nic", nicCfg, *ctrl, alloc, plan.numCores));
        nic::Nic &port = *nics.back();
        for (std::uint32_t q = 0; q < p.numQueues; ++q)
            buildNfPipeline(p.firstCore + q, port, q, p.nfKind);

        gen::TrafficConfig tc;
        tc.frameBytes = cfg.frameBytes;
        tc.stopAt = p.stopAt;
        if (p.rss) {
            tc.synthFlows = cfg.totalFlows
                                ? cfg.totalFlows
                                : std::uint64_t(cfg.flowsPerNf) *
                                      p.numQueues;
            tc.synthDscp = p.dscp;
        } else {
            tc.flows = gen::makeFlows(
                cfg.flowsPerNf,
                static_cast<std::uint16_t>(5000 + 100 * p.firstCore),
                p.dscp);
            for (auto &f : tc.flows)
                port.flowDirector().addRule(f.tuple, p.firstCore);
        }
        buildGen(p.name + ".gen", port, tc, p.traffic, p.rateGbps);
    }

    for (const AggressorPlan &a : plan.aggressors) {
        cores.push_back(std::make_unique<cpu::Core>(
            sim_, a.name + ".core", a.core, *hier));
        antags.push_back(std::make_unique<nf::LlcAntagonist>(
            sim_, a.name, *cores.back(), alloc, cfg.antagonist));
    }

    if (cfg.tenantMode()) {
        tenantMgr = std::make_unique<tenant::TenantManager>(
            sim_, "system.tenants", *hier, std::move(plan.tenants),
            cfg.tenantPartition != TenantPartition::None);
        if (cfg.tenantPartition == TenantPartition::Ioca)
            ioca = std::make_unique<tenant::IocaController>(
                sim_, "system.ioca", *hier, *tenantMgr, cfg.ioca);
    }

    // Runtime invariant checker: runFor() sweeps the whole model so a
    // silent model bug panics instead of skewing figures.
    checker = std::make_unique<sim::InvariantChecker>(sim_,
                                                      "system.checker");
    sim::registerEventQueueInvariants(*checker, sim_.eventq());
    cache::registerCacheInvariants(*checker, *hier);
    for (auto &n : nics)
        nic::registerNicInvariants(*checker, *n);

    recorder = std::make_unique<TimelineRecorder>(sim_);
}

TestSystem::~TestSystem() = default;

void
TestSystem::start()
{
    SIM_ASSERT(!started, "TestSystem started twice");
    started = true;

    ctrl->start();
    for (auto &n : nics)
        n->start();
    for (auto &f : nfs)
        f->launch();
    for (auto &a : antags) {
        a->warmUp();
        a->launch();
    }
    for (auto &g : gens)
        g->start();
    if (ioca)
        ioca->start();
}

void
TestSystem::runFor(sim::Tick duration)
{
    const sim::Tick from = sim_.now();
    sim_.runFor(duration);
    // Every sleeper has been woken and credited by now.
    if (sim_.now() / checkGrid != from / checkGrid)
        checker->check();
}

std::vector<std::uint8_t>
TestSystem::checkpoint()
{
    SIM_ASSERT(started, "checkpoint of an unstarted TestSystem");
    return ckpt::save(sim_);
}

void
TestSystem::restore(const std::vector<std::uint8_t> &blob)
{
    SIM_ASSERT(started, "restore into an unstarted TestSystem");
    ckpt::restore(sim_, blob);
}

Totals
TestSystem::totals() const
{
    Totals t;
    t.mlcWritebacks = hier->totalMlcWritebacks();
    for (std::uint32_t c = 0; c < numNfs(); ++c) {
        t.nfMlcWritebacks += hier->mlcOf(c).writebacks.get() +
                             hier->mlcOf(c).cleanEvictions.get();
    }
    t.mlcPcieInvals = hier->totalMlcPcieInvals();
    t.llcWritebacks = hier->llcWritebacks();
    t.dramReads = hier->dram().readCount();
    t.dramWrites = hier->dram().writeCount();
    for (const auto &n : nics) {
        t.rxPackets += n->rxPackets.get();
        t.rxDrops += n->rxDrops.get();
    }
    for (const auto &f : nfs)
        t.processedPackets += f->packetsProcessed.get();
    return t;
}

std::vector<TenantTotals>
TestSystem::tenantTotals() const
{
    std::vector<TenantTotals> out;
    if (!tenantMgr)
        return out;
    for (std::uint32_t id = 0; id < tenantMgr->numTenants(); ++id) {
        const tenant::Tenant &t = tenantMgr->tenant(id);
        TenantTotals tt;
        tt.name = t.name;
        tt.slo = t.slo;
        tt.antagonist = t.antagonist;
        tt.cores = t.cores;
        tt.ways = t.ways;
        std::vector<std::uint64_t> samples;
        for (const sim::CoreId c : t.cores) {
            tt.mlcWritebacks += hier->mlcOf(c).writebacks.get() +
                                hier->mlcOf(c).cleanEvictions.get();
            if (c < nfs.size()) {
                tt.rxPackets += nics[c]->rxPackets.get();
                tt.rxDrops += nics[c]->rxDrops.get();
                tt.processedPackets += nfs[c]->packetsProcessed.get();
                const auto &s = nfs[c]->latency.rawSamples();
                samples.insert(samples.end(), s.begin(), s.end());
            }
        }
        // Exact percentiles over the merged member-NF samples.
        std::sort(samples.begin(), samples.end());
        tt.p50 = stats::nearestRank(samples, 50.0);
        tt.p99 = stats::nearestRank(samples, 99.0);
        tt.p999 = stats::nearestRank(samples, 99.9);
        out.push_back(std::move(tt));
    }
    return out;
}

void
TestSystem::trackDefaultSeries()
{
    recorder->trackRate("mlcWB", [this] {
        return hier->totalMlcWritebacks();
    });
    recorder->trackRate("llcWB",
                        [this] { return hier->llcWritebacks(); });
    recorder->trackRate("dmaWrites", [this] {
        return hier->pcieWrites.get();
    });
    recorder->trackRate("dramWrites", [this] {
        return hier->dram().writeCount();
    });
    recorder->trackRate("dramReads", [this] {
        return hier->dram().readCount();
    });
}

} // namespace harness
