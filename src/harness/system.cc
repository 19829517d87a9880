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
    if (cfg.shardJobs > 1 && !cfg.links.split())
        sim::fatal("shardJobs = %u needs split links "
                   "(--link-pcie-ns/--link-mesh-ns): without them the "
                   "machine is one timing domain and runs on one thread",
                   cfg.shardJobs);
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

    // Split-link mode: domain queues and channels must exist before
    // the components that live on them (the NIC takes the PCIe
    // adapter as its DMA target).
    if (cfg.links.split()) {
        validateSplitConfig();
        buildSplitFabric();
    }

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
        // In split mode the port lives on its own queue and DMA-writes
        // go over the PCIe link instead of straight into the
        // controller.
        nic::DmaTarget &dmaTarget =
            fabric ? static_cast<nic::DmaTarget &>(*pcieTarget)
                   : static_cast<nic::DmaTarget &>(*ctrl);
        if (fabric)
            sim_.bindConstructionQueue(fabric->nicQ);
        nics.push_back(std::make_unique<nic::Nic>(
            sim_, "system.port0.nic", nicCfg, dmaTarget, alloc,
            numCores));
        if (fabric)
            sim_.bindConstructionQueue(nullptr);
        for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
            if (fabric)
                sim_.bindConstructionQueue(fabric->coreQ[i]);
            buildNfPipeline(i, *nics.back(), i, cfg.nfKind);
            if (fabric)
                sim_.bindConstructionQueue(nullptr);
        }

        gen::TrafficConfig tc;
        tc.frameBytes = cfg.frameBytes;
        tc.synthFlows = cfg.totalFlows
                            ? cfg.totalFlows
                            : std::uint64_t(cfg.flowsPerNf) *
                                  cfg.numNfs;
        tc.synthDscp = dscp;
        if (fabric)
            sim_.bindConstructionQueue(fabric->nicQ);
        buildGen("system.port0.gen", *nics.back(), tc, cfg.traffic,
                 cfg.rateGbps);
        if (fabric)
            sim_.bindConstructionQueue(nullptr);
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

    if (fabric) {
        wireSplitMode();
    } else {
        // Runtime invariant checker: sweeps the whole model between
        // events so a silent model bug panics instead of skewing
        // figures. The sweeps read every domain's state from main-
        // queue events, which would race under a split plan — split
        // runs rely on the byte-equality gates instead.
        checker = std::make_unique<sim::InvariantChecker>(
            sim_, "system.checker", cfg.invariantCheckPeriod);
        sim::registerEventQueueInvariants(*checker, sim_.eventq());
        cache::registerCacheInvariants(*checker, *hier);
        for (auto &n : nics)
            nic::registerNicInvariants(*checker, *n);
        checker->attach();
    }

    recorder = std::make_unique<TimelineRecorder>(sim_);

    // Split mode runs through the executor: the domain queues need
    // the windowed barrier protocol.
    if (fabric)
        buildShardExecutor();
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
    if (cfg.links.split())
        sim::fatal("tenant mode does not support split links (the "
                   "legacy per-NF-port shape has no NIC domain)");
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

void
TestSystem::validateSplitConfig() const
{
    if (!cfg.multiQueue())
        sim::fatal("split-link mode needs the multi-queue layout "
                   "(rxQueues != 0): the legacy per-NF-port shape has "
                   "no single NIC domain to put behind the PCIe link");
    if (cfg.withAntagonist)
        sim::fatal("split-link mode does not support the LLC "
                   "antagonist: its core has no NF pipeline domain");
    if (cfg.nfKind == NfKind::L2Fwd ||
        cfg.nfKind == NfKind::L2FwdDropPayload)
        sim::fatal("split-link mode does not support transmitting NFs "
                   "(the TX path needs synchronous outbound DMA "
                   "reads)");
    if (cfg.links.pcieNs <= 0.0 || cfg.links.meshNs <= 0.0)
        sim::fatal("split-link mode needs both link latencies > 0 "
                   "(pcie %.1f ns, mesh %.1f ns): every cross-domain "
                   "coupling must carry a modelled delay",
                   cfg.links.pcieNs, cfg.links.meshNs);
}

void
TestSystem::buildSplitFabric()
{
    fabric = std::make_unique<SplitFabric>();
    fabric->nicQ = &sim_.addDomainQueue("nic");
    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        fabric->coreQ.push_back(
            &sim_.addDomainQueue("core" + std::to_string(i)));
    }

    const sim::Tick pcie =
        std::max<sim::Tick>(1, sim::nsToTicks(cfg.links.pcieNs));
    const sim::Tick mesh =
        std::max<sim::Tick>(1, sim::nsToTicks(cfg.links.meshNs));

    // Construction order is also the executor's flush order; keep it
    // stable or checkpoints change shape.
    fabric->nicToUncore = std::make_unique<SplitChannel>(
        sim_, "system.link.pcie.rx", *fabric->nicQ, sim_.eventq(),
        pcie);
    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        const std::string c = "core" + std::to_string(i);
        fabric->coreToUncore.push_back(std::make_unique<SplitChannel>(
            sim_, "system.link.mesh." + c + ".up", *fabric->coreQ[i],
            sim_.eventq(), mesh));
        fabric->uncoreToCore.push_back(std::make_unique<SplitChannel>(
            sim_, "system.link.mesh." + c + ".down", sim_.eventq(),
            *fabric->coreQ[i], mesh));
        fabric->nicToCore.push_back(std::make_unique<SplitChannel>(
            sim_, "system.link.pcie." + c + ".desc", *fabric->nicQ,
            *fabric->coreQ[i], pcie));
        fabric->coreToNic.push_back(std::make_unique<SplitChannel>(
            sim_, "system.link.pcie." + c + ".doorbell",
            *fabric->coreQ[i], *fabric->nicQ, pcie));
    }

    pcieTarget = std::make_unique<PcieDmaTarget>(*fabric->nicToUncore);
}

void
TestSystem::wireSplitMode()
{
    // ---- Uncore-side consumers (main queue) ----------------------

    fabric->nicToUncore->setHandler([this](const SplitMsg &m) {
        SIM_ASSERT(m.kind == SplitMsg::Kind::DmaWrite,
                   "unexpected message on the PCIe RX link");
        ctrl->dmaWrite(m.addr, m.meta);
    });

    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        fabric->coreToUncore[i]->setHandler([this](const SplitMsg &m) {
            switch (m.kind) {
              case SplitMsg::Kind::FillReq: {
                const auto r = hier->splitHandleFillReq(m.core, m.addr);
                SplitMsg rsp;
                rsp.kind = SplitMsg::Kind::FillRsp;
                rsp.core = m.core;
                rsp.addr = m.addr;
                rsp.a = r.extraLat;
                rsp.b = (r.dirty ? SplitMsg::flagDirty : 0) |
                        (r.io ? SplitMsg::flagIo : 0) |
                        (m.a ? SplitMsg::flagWrite : 0) |
                        (static_cast<std::uint64_t>(r.level)
                         << SplitMsg::levelShift);
                fabric->uncoreToCore[m.core]->send(std::move(rsp));
                break;
              }
              case SplitMsg::Kind::VictimWb:
                hier->splitHandleVictimWb(m.core, m.addr, m.a != 0,
                                          m.b != 0);
                break;
              case SplitMsg::Kind::CoreInval:
                hier->splitHandleCoreInval(m.core, m.addr);
                break;
              case SplitMsg::Kind::PrefetchRetire:
                hier->firePrefetchRetire(m.core);
                break;
              default:
                sim::fatal("unexpected message on a mesh up-link");
            }
        });
    }

    // ---- Core-side consumers -------------------------------------

    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        fabric->uncoreToCore[i]->setHandler([this](const SplitMsg &m) {
            switch (m.kind) {
              case SplitMsg::Kind::FillRsp:
                hier->splitInstallFill(
                    m.core, m.addr, (m.b & SplitMsg::flagDirty) != 0,
                    (m.b & SplitMsg::flagIo) != 0,
                    (m.b & SplitMsg::flagWrite) != 0);
                cores[m.core]->fillArrived(
                    m.a, static_cast<mem::HitLevel>(
                             m.b >> SplitMsg::levelShift));
                break;
              case SplitMsg::Kind::MlcInval:
                hier->splitHandleMlcInval(m.core, m.addr);
                break;
              case SplitMsg::Kind::BackInval:
                hier->splitHandleBackInval(m.core, m.addr);
                break;
              case SplitMsg::Kind::PrefetchInstall:
                hier->splitInstallPrefetch(m.core, m.addr, m.a != 0,
                                           m.b != 0);
                break;
              default:
                sim::fatal("unexpected message on a mesh down-link");
            }
        });
    }

    // ---- NIC-side consumers --------------------------------------

    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        fabric->coreToNic[i]->setHandler([this, i](const SplitMsg &m) {
            nic::RxRing &ring = nics[0]->rxRing(i);
            switch (m.kind) {
              case SplitMsg::Kind::RingConsume: {
                const std::uint32_t idx = ring.swConsume();
                SIM_ASSERT(idx == m.a, "ring consume out of order");
                break;
              }
              case SplitMsg::Kind::RingArm:
                ring.swArm(static_cast<std::uint32_t>(m.a), m.addr,
                           static_cast<std::uint32_t>(m.b));
                break;
              default:
                sim::fatal("unexpected message on a doorbell link");
            }
        });
    }

    // ---- Producers -----------------------------------------------

    cache::MemoryHierarchy::SplitHooks hooks;
    hooks.victimWb = [this](sim::CoreId c, sim::Addr addr, bool dirty,
                            bool io) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::VictimWb;
        m.core = c;
        m.addr = addr;
        m.a = dirty;
        m.b = io;
        fabric->coreToUncore[c]->send(std::move(m));
    };
    hooks.prefetchRetire = [this](sim::CoreId c) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::PrefetchRetire;
        m.core = c;
        fabric->coreToUncore[c]->send(std::move(m));
    };
    hooks.coreInval = [this](sim::CoreId c, sim::Addr addr) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::CoreInval;
        m.core = c;
        m.addr = addr;
        fabric->coreToUncore[c]->send(std::move(m));
    };
    hooks.mlcInval = [this](sim::CoreId c, sim::Addr addr) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::MlcInval;
        m.core = c;
        m.addr = addr;
        fabric->uncoreToCore[c]->send(std::move(m));
    };
    hooks.backInval = [this](sim::CoreId c, sim::Addr addr) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::BackInval;
        m.core = c;
        m.addr = addr;
        fabric->uncoreToCore[c]->send(std::move(m));
    };
    hooks.prefetchInstall = [this](sim::CoreId c, sim::Addr addr,
                                   bool dirty, bool io) {
        SplitMsg m;
        m.kind = SplitMsg::Kind::PrefetchInstall;
        m.core = c;
        m.addr = addr;
        m.a = dirty;
        m.b = io;
        fabric->uncoreToCore[c]->send(std::move(m));
    };
    hier->enableSplitMode(std::move(hooks));

    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        cores[i]->setSplitFillDispatch([this, i](sim::Tick resumeAt) {
            if (!hier->hasPendingFills(i))
                return false;
            const auto fills = hier->takePendingFills(i);
            cores[i]->beginFillWait(
                static_cast<std::uint32_t>(fills.size()), resumeAt);
            for (const auto &f : fills) {
                SplitMsg m;
                m.kind = SplitMsg::Kind::FillReq;
                m.core = i;
                m.addr = f.addr;
                m.a = f.write;
                fabric->coreToUncore[i]->send(std::move(m));
            }
            return true;
        });

        rxqs[i]->enableSplitMode(
            [this, i](std::uint32_t descIdx) {
                SplitMsg m;
                m.kind = SplitMsg::Kind::RingConsume;
                m.core = i;
                m.a = descIdx;
                fabric->coreToNic[i]->send(std::move(m));
            },
            [this, i](std::uint32_t descIdx, sim::Addr bufAddr,
                      std::uint32_t mbufIdx) {
                SplitMsg m;
                m.kind = SplitMsg::Kind::RingArm;
                m.core = i;
                m.a = descIdx;
                m.addr = bufAddr;
                m.b = mbufIdx;
                fabric->coreToNic[i]->send(std::move(m));
            });
    }

    nics[0]->setDescReadyHook(
        [this](std::uint32_t queue, std::uint32_t descIdx) {
            const nic::RxSlot &slot =
                nics[0]->rxRing(queue).slot(descIdx);
            SplitMsg m;
            m.kind = SplitMsg::Kind::DescReady;
            m.core = queue;
            m.a = descIdx;
            m.b = slot.mbufIdx;
            m.pkt = slot.pkt;
            fabric->nicToCore[queue]->send(std::move(m));
        });

    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        fabric->nicToCore[i]->setHandler([this, i](const SplitMsg &m) {
            SIM_ASSERT(m.kind == SplitMsg::Kind::DescReady,
                       "unexpected message on a descriptor link");
            rxqs[i]->onDescReady(static_cast<std::uint32_t>(m.a),
                                 static_cast<std::uint32_t>(m.b),
                                 m.pkt);
        });
    }
}

void
TestSystem::buildShardExecutor()
{
    // Every cross-domain coupling is a latency link, so the uncore,
    // the NIC and each core run as separate domains, and the
    // conservative window is the minimum link latency.
    const sim::Tick pcie = fabric->nicToUncore->latency();
    const sim::Tick mesh = fabric->coreToUncore.front()->latency();

    shardExec = std::make_unique<sim::shard::ShardedExecutor>(
        cfg.shardJobs);
    shardExec->addExternalDomain("uncore", sim_.eventq());
    shardExec->addExternalDomain("nic", *fabric->nicQ);
    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        shardExec->addExternalDomain("core" + std::to_string(i),
                                     *fabric->coreQ[i]);
    }
    shardExec->setWindow(std::min(pcie, mesh));

    // Flush order = construction order (checkpoint shape depends on
    // it).
    shardExec->registerChannel(fabric->nicToUncore.get());
    for (std::uint32_t i = 0; i < cfg.numNfs; ++i) {
        shardExec->registerChannel(fabric->coreToUncore[i].get());
        shardExec->registerChannel(fabric->uncoreToCore[i].get());
        shardExec->registerChannel(fabric->nicToCore[i].get());
        shardExec->registerChannel(fabric->coreToNic[i].get());
    }
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
    if (shardExec)
        shardExec->runUntil(sim_.now() + duration);
    else
        sim_.runFor(duration);
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
    // The default series sample core-owned MLC counters from a main-
    // queue periodic, which would race under a split plan; scaling
    // runs compare totals() between runs instead.
    if (fabric)
        return;

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
