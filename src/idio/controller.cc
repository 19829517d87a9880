/**
 * @file
 * IdioController implementation.
 */

#include "controller.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace idio
{

IdioController::IdioController(sim::Simulation &simulation,
                               const std::string &name,
                               cache::MemoryHierarchy &hierarchy,
                               const IdioConfig &config)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      headerHints(statGroup, "headerHints",
                  "prefetch hints for header cachelines"),
      payloadHints(statGroup, "payloadHints",
                   "prefetch hints for payload cachelines"),
      directDramSteers(statGroup, "directDramSteers",
                       "class-1 writes steered to DRAM"),
      burstSignals(statGroup, "burstSignals",
                   "burst notifications received from the classifier"),
      highPressureIntervals(statGroup, "highPressureIntervals",
                            "core-intervals with high MLC pressure"),
      hier(hierarchy), cfg(config),
      trc(simulation.tracer().registerSource(name)),
      thrPerInterval(config.thresholdPerInterval()),
      fsms(hierarchy.numCores()),
      wbThisInterval(hierarchy.numCores(), 0),
      wbAccum(hierarchy.numCores(), 0),
      wbAvg(hierarchy.numCores(), 0),
      controlEvent(eventq(), controlInterval,
                   [this] { controlPlaneTick(); },
                   name + ".controlPlane")
{
    for (std::uint32_t c = 0; c < hierarchy.numCores(); ++c) {
        prefetchers.push_back(std::make_unique<MlcPrefetcher>(
            simulation, name + ".prefetcher" + std::to_string(c),
            hierarchy, c, cfg.prefetchWindowLines));
    }
}

IdioController::~IdioController() = default;

void
IdioController::start()
{
    hier.setMlcWbObserver(
        cache::MemoryHierarchy::MlcWbObserver::fromMember<
            &IdioController::onMlcWriteback>(this));
    if (cfg.prefetchWindowLines != 0) {
        hier.setPrefetchRetireObserver(
            cache::MemoryHierarchy::PrefetchRetireObserver::fromMember<
                &IdioController::onPrefetchRetire>(this));
    }
    controlEvent.start();
}

Steering
IdioController::status(sim::CoreId core) const
{
    if (!cfg.mlcPrefetch())
        return Steering::Llc;
    if (!cfg.dynamicFsm())
        return Steering::Mlc; // Static configuration
    return fsms[core].status();
}

void
IdioController::dmaWrite(sim::Addr addr, const nic::TlpMeta &meta)
{
    // Baseline DDIO / invalidate-only: static LLC placement.
    if (!cfg.mlcPrefetch() && !cfg.directDram()) {
        hier.pcieWrite(addr);
        return;
    }

    // Burst notification resets the FSM to the MLC state (Alg. 1 l.3).
    if (meta.isBurst && cfg.dynamicFsm() && cfg.mlcPrefetch()) {
        if (fsms[meta.destCore].state() != 0) {
            ++burstSignals;
            IDIO_TRACE_INSTANT(trc, trace::EventKind::IdioBurst, now(),
                               0, meta.destCore, 0);
            IDIO_TRACE_COUNTER(trc, trace::EventKind::IdioFsm, now(),
                               0, meta.destCore);
        }
        fsms[meta.destCore].onBurst();
    }

    // Headers always stay on the DCA path and are prefetched to the
    // destination MLC (Alg. 1 l.4-5).
    if (meta.isHeader && cfg.mlcPrefetch()) {
        hier.pcieWrite(addr);
        prefetchers[meta.destCore]->hint(addr);
        ++headerHints;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::IdioHintHeader,
                           now(), 0, meta.destCore, addr);
        return;
    }

    // Class-1 payloads bypass the cache hierarchy (Alg. 1 l.6-7).
    if (meta.appClass == 1 && cfg.directDram()) {
        hier.pcieWriteDirectDram(addr);
        ++directDramSteers;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::IdioDirectDram,
                           now(), 0, meta.destCore, addr);
        return;
    }

    // Class-0 payloads: DDIO write, plus a prefetch hint while the
    // destination core's status register reads MLC (Alg. 1 l.8-11).
    hier.pcieWrite(addr);
    if (cfg.mlcPrefetch() && status(meta.destCore) == Steering::Mlc) {
        prefetchers[meta.destCore]->hint(addr);
        ++payloadHints;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::IdioHintPayload,
                           now(), 0, meta.destCore, addr);
    }
}

sim::Tick
IdioController::dmaRead(sim::Addr addr)
{
    return hier.pcieRead(addr);
}

void
IdioController::controlPlaneTick()
{
    const std::uint32_t n = hier.numCores();
    for (std::uint32_t c = 0; c < n; ++c) {
        const bool high =
            wbThisInterval[c] > wbAvg[c] + thrPerInterval;
        if (high)
            ++highPressureIntervals;
        if (cfg.mlcPrefetch() && cfg.dynamicFsm()) {
            const std::uint8_t before = fsms[c].state();
            fsms[c].step(high);
            if (fsms[c].state() != before) {
                IDIO_TRACE_COUNTER(trc, trace::EventKind::IdioFsm,
                                   now(), fsms[c].state(), c);
            }
        }
        wbAccum[c] += wbThisInterval[c];
        wbThisInterval[c] = 0;
    }

    if (++intervalsSinceAvg >= avgWindow) {
        for (std::uint32_t c = 0; c < n; ++c) {
            wbAvg[c] = static_cast<std::uint32_t>(wbAccum[c] /
                                                  avgWindow);
            wbAccum[c] = 0;
        }
        intervalsSinceAvg = 0;
    }
}

void
IdioController::serialize(ckpt::Serializer &s) const
{
    s.writeU64(fsms.size());
    for (const SteeringFsm &fsm : fsms)
        s.writeU8(fsm.state());
    s.writePodVec(wbThisInterval);
    s.writePodVec(wbAccum);
    s.writePodVec(wbAvg);
    s.writeU32(intervalsSinceAvg);
    ckpt::serializeEvent(s, controlEvent);
}

void
IdioController::unserialize(ckpt::Deserializer &d)
{
    const std::uint64_t n = d.readU64();
    if (n != fsms.size())
        sim::fatal("ckpt: '%s' FSM count mismatch (checkpoint %llu, "
                   "config %zu)",
                   name().c_str(), (unsigned long long)n, fsms.size());
    for (SteeringFsm &fsm : fsms)
        fsm.restoreState(d.readU8());
    wbThisInterval = d.readPodVec<std::uint32_t>();
    wbAccum = d.readPodVec<std::uint64_t>();
    wbAvg = d.readPodVec<std::uint32_t>();
    if (wbThisInterval.size() != n || wbAccum.size() != n ||
        wbAvg.size() != n) {
        sim::fatal("ckpt: '%s' telemetry vector size mismatch",
                   name().c_str());
    }
    intervalsSinceAvg = d.readU32();
    ckpt::unserializeEvent(d, &controlEvent);
}

} // namespace idio
