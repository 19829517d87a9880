/**
 * @file
 * TestSystem implementation.
 */

#include "system.hh"

#include <algorithm>
#include <cmath>

#include "cache/invariants.hh"
#include "ckpt/checkpoint.hh"
#include "nf/copy_touch_drop.hh"
#include "nic/invariants.hh"

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

TestSystem::TestSystem(const ExperimentConfig &config)
    : cfg(config), sim_(config.seed)
{
    if (cfg.tenantMode()) {
        validateTenantConfig();
        // NF pipelines occupy cores [0, numNfs); antagonist-tenant
        // aggressor cores follow.
        cfg.numNfs = cfg.tenantNfCores();
    }
    const std::uint32_t numCores =
        cfg.tenantMode()
            ? cfg.tenantCores()
            : cfg.numNfs + (cfg.withAntagonist ? 1 : 0);

    // Hierarchy: antagonist MLC override, Invalidatable-page oracle.
    cache::HierarchyConfig hierCfg = cfg.hier;
    hierCfg.numCores = numCores;
    if (cfg.withAntagonist) {
        hierCfg.mlcSizeOverride.resize(numCores, 0);
        hierCfg.mlcSizeOverride[numCores - 1] = cfg.antagonistMlcBytes;
    }
    if (cfg.tenantMode() && numCores > cfg.numNfs) {
        // Aggressor cores run with the paper's shrunken MLC.
        hierCfg.mlcSizeOverride.resize(numCores, 0);
        for (std::uint32_t c = cfg.numNfs; c < numCores; ++c)
            hierCfg.mlcSizeOverride[c] = cfg.antagonistMlcBytes;
    }
    hierCfg.pageAttributes = &alloc;
    hier = std::make_unique<cache::MemoryHierarchy>(sim_, "system",
                                                    hierCfg);

    ctrl = std::make_unique<idio::IdioController>(sim_, "system.idio",
                                                  *hier, cfg.idio);

    nf::NfConfig nfCfg = cfg.nf;
    nfCfg.selfInvalidate = cfg.idio.selfInvalidate;

    // One NF core's worth of compute + driver machinery, bound to
    // ring `queue` of `port`.
    auto buildNfPipeline = [&](std::uint32_t i, nic::Nic &port,
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
                sim_, base, *cores.back(), *rxqs.back(), nfCfg));
            break;
          case NfKind::CopyTouchDrop:
            nfs.push_back(std::make_unique<nf::CopyTouchDrop>(
                sim_, base, *cores.back(), *rxqs.back(), nfCfg,
                alloc));
            break;
          case NfKind::L2Fwd:
            nfs.push_back(std::make_unique<nf::L2Fwd>(
                sim_, base, *cores.back(), *rxqs.back(), nfCfg));
            break;
          case NfKind::L2FwdDropPayload:
            nfs.push_back(std::make_unique<nf::L2FwdDropPayload>(
                sim_, base, *cores.back(), *rxqs.back(), nfCfg));
            break;
        }
    };

    std::uint8_t dscp = cfg.dscp;
    if (cfg.nfKind == NfKind::L2FwdDropPayload && dscp < 32)
        dscp = 40; // class-1 workload unless overridden

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

    if (cfg.multiQueue()) {
        // One shared port, a ring per NF core, RSS/RETA steering over
        // a synthetic flow population (no EP rules): the paper's
        // many-core machine shape.
        if (cfg.rxQueues != cfg.numNfs)
            sim::fatal("multi-queue layout needs rxQueues == numNfs "
                       "(%u != %u): each ring is polled by exactly "
                       "one core",
                       cfg.rxQueues, cfg.numNfs);
        nic::NicConfig nicCfg = cfg.nic;
        nicCfg.numQueues = cfg.rxQueues;
        nicCfg.rssTableEntries = cfg.rssTableEntries;
        nics.push_back(std::make_unique<nic::Nic>(
            sim_, "system.port0.nic", nicCfg, *ctrl, alloc,
            numCores));
        for (std::uint32_t i = 0; i < cfg.numNfs; ++i)
            buildNfPipeline(i, *nics.back(), i, cfg.nfKind);

        gen::TrafficConfig tc;
        tc.frameBytes = cfg.frameBytes;
        tc.synthFlows = cfg.totalFlows
                            ? cfg.totalFlows
                            : std::uint64_t(cfg.flowsPerNf) *
                                  cfg.numNfs;
        tc.synthDscp = dscp;
        buildGen("system.port0.gen", *nics.back(), tc, cfg.traffic,
                 cfg.rateGbps);
    } else {
        // Legacy layout: one single-queue NIC port + generator per NF
        // core, flows pinned to the core with EP perfect-match rules.
        // In tenant mode the per-core NF kind, traffic shape, rate
        // and departure tick come from the owning TenantSpec.
        struct NfPlan
        {
            NfKind kind;
            TrafficKind traffic;
            double rateGbps;
            sim::Tick stopAt;
        };
        std::vector<NfPlan> plan(
            cfg.numNfs,
            {cfg.nfKind, cfg.traffic, cfg.rateGbps, sim::maxTick});
        if (cfg.tenantMode()) {
            std::uint32_t c = 0;
            for (const auto &spec : cfg.tenants) {
                if (spec.antagonist)
                    continue;
                for (std::uint32_t k = 0; k < spec.cores; ++k, ++c) {
                    plan[c] = {spec.nfKind, spec.traffic,
                               spec.rateGbps > 0.0 ? spec.rateGbps
                                                   : cfg.rateGbps,
                               spec.stopAt};
                }
            }
        }

        for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
            const std::string base = "system.nf" + std::to_string(i);
            nics.push_back(std::make_unique<nic::Nic>(
                sim_, base + ".nic", cfg.nic, *ctrl, alloc,
                numCores));
            buildNfPipeline(i, *nics.back(), 0, plan[i].kind);

            gen::TrafficConfig tc;
            tc.frameBytes = cfg.frameBytes;
            tc.stopAt = plan[i].stopAt;
            tc.flows = gen::makeFlows(
                cfg.flowsPerNf,
                static_cast<std::uint16_t>(5000 + 100 * i), dscp);
            for (auto &f : tc.flows)
                nics.back()->flowDirector().addRule(f.tuple, i);
            buildGen(base + ".gen", *nics.back(), tc, plan[i].traffic,
                     plan[i].rateGbps);
        }
    }

    if (cfg.withAntagonist) {
        const sim::CoreId antagCore = numCores - 1;
        cores.push_back(std::make_unique<cpu::Core>(
            sim_, "system.antag.core", antagCore, *hier));
        antag = std::make_unique<nf::LlcAntagonist>(
            sim_, "system.antag", *cores.back(), alloc,
            cfg.antagonist);
    }

    if (cfg.tenantMode())
        buildTenants();

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

void
TestSystem::validateTenantConfig() const
{
    if (cfg.multiQueue())
        sim::fatal("tenant mode needs the legacy layout (rxQueues == "
                   "0): per-tenant NF kinds, rates and flow ranges "
                   "ride the per-core ports");
    if (cfg.withAntagonist)
        sim::fatal("tenant mode models aggressors as antagonist "
                   "tenants; drop withAntagonist");
    if (cfg.tenantNfCores() == 0)
        sim::fatal("tenant mode needs at least one NF tenant core");
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantSpec &spec = cfg.tenants[i];
        if (spec.name.empty())
            sim::fatal("tenant %zu has no name", i);
        if (spec.cores == 0)
            sim::fatal("tenant '%s' has no cores", spec.name.c_str());
        for (std::size_t j = 0; j < i; ++j)
            if (cfg.tenants[j].name == spec.name)
                sim::fatal("duplicate tenant name '%s'",
                           spec.name.c_str());
    }
}

void
TestSystem::buildTenants()
{
    std::vector<tenant::Tenant> descs;
    std::uint32_t nfCursor = 0;
    sim::CoreId antagCursor = cfg.numNfs;
    for (const TenantSpec &spec : cfg.tenants) {
        tenant::Tenant t;
        t.name = spec.name;
        t.slo = spec.slo;
        t.antagonist = spec.antagonist;
        t.flowsPerCore = spec.antagonist ? 0 : cfg.flowsPerNf;
        for (std::uint32_t k = 0; k < spec.cores; ++k) {
            if (spec.antagonist) {
                const sim::CoreId c = antagCursor++;
                t.cores.push_back(c);
                const std::string base = "system." + spec.name +
                                         ".antag" + std::to_string(k);
                cores.push_back(std::make_unique<cpu::Core>(
                    sim_, base + ".core", c, *hier));
                tenantAntags.push_back(
                    std::make_unique<nf::LlcAntagonist>(
                        sim_, base, *cores.back(), alloc,
                        cfg.antagonist));
            } else {
                const sim::CoreId c = nfCursor++;
                t.cores.push_back(c);
                t.flowPortBases.push_back(
                    static_cast<std::uint16_t>(5000 + 100 * c));
            }
        }
        descs.push_back(std::move(t));
    }

    tenantMgr = std::make_unique<tenant::TenantManager>(
        sim_, "system.tenants", *hier, std::move(descs),
        cfg.tenantPartition != TenantPartition::None);
    if (cfg.tenantPartition == TenantPartition::Ioca)
        ioca = std::make_unique<tenant::IocaController>(
            sim_, "system.ioca", *hier, *tenantMgr, cfg.ioca);
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
    if (antag) {
        antag->warmUp();
        antag->launch();
    }
    for (auto &a : tenantAntags) {
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
    for (std::uint32_t c = 0; c < cfg.numNfs; ++c) {
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
        // Exact nearest-rank percentiles over the merged member-NF
        // samples (same method as stats::LatencyRecorder).
        std::sort(samples.begin(), samples.end());
        auto pct = [&samples](double p) -> std::uint64_t {
            if (samples.empty())
                return 0;
            auto rank = static_cast<std::size_t>(std::ceil(
                p / 100.0 * static_cast<double>(samples.size())));
            if (rank == 0)
                rank = 1;
            return samples[rank - 1];
        };
        tt.p50 = pct(50.0);
        tt.p99 = pct(99.0);
        tt.p999 = pct(99.9);
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
