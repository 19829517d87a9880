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

namespace
{

/**
 * Mempool head-room beyond the ring size (DPDK guidance: ring + burst
 * + slack). The pool recycles FIFO, so the I/O working set is ring +
 * this many buffers. The only value any workload uses.
 */
constexpr std::uint32_t mempoolExtra = 128;

} // anonymous namespace

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
    cache::HierarchyConfig hierCfg = plan.hierarchy(cfg.hier);
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
            alloc, cfg.nic.ringSize + mempoolExtra,
            dpdk::defaultBufBytes, /*invalidatable=*/true,
            cfg.recycleOrder));
        rxqs.push_back(std::make_unique<dpdk::RxQueue>(
            *cores.back(), port, *pools.back(), queue));

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
        nics.push_back(std::make_unique<nic::Nic>(
            sim_, p.name + ".nic", cfg.nic, *ctrl, alloc, p.firstCore,
            p.numQueues));
        nic::Nic &port = *nics.back();
        for (std::uint32_t q = 0; q < p.numQueues; ++q)
            buildNfPipeline(p.firstCore + q, port, q, p.nfKind);

        gen::TrafficConfig tc;
        tc.frameBytes = cfg.frameBytes;
        tc.stopAt = p.stopAt;
        if (p.synthFlows != 0) {
            tc.synthFlows = p.synthFlows;
            tc.synthDscp = p.dscp;
        } else {
            tc.flows = gen::makeFlows(
                cfg.flowsPerNf,
                static_cast<std::uint16_t>(5000 + 100 * p.firstCore),
                p.dscp);
        }
        buildGen(p.name + ".gen", port, tc, p.traffic, p.rateGbps);
    }

    for (const AggressorPlan &a : plan.aggressors) {
        cores.push_back(std::make_unique<cpu::Core>(
            sim_, a.name + ".core", a.core, *hier));
        antags.push_back(std::make_unique<nf::LlcAntagonist>(
            sim_, a.name, *cores.back(), alloc,
            cfg.antagonistBufferBytes));
    }

    if (cfg.tenantMode()) {
        tenantMgr = std::make_unique<tenant::TenantManager>(
            sim_, "system.tenants", *hier, std::move(plan.tenants),
            cfg.tenantPartition != TenantPartition::None);
        if (cfg.tenantPartition == TenantPartition::Ioca)
            ioca = std::make_unique<tenant::IocaController>(
                sim_, "system.ioca", *hier, *tenantMgr);
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
