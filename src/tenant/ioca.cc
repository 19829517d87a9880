/**
 * @file
 * IocaController implementation.
 */

#include "ioca.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace tenant
{

IocaController::IocaController(sim::Simulation &simulation,
                               const std::string &name,
                               cache::MemoryHierarchy &hierarchy,
                               TenantManager &manager,
                               const IocaConfig &config)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      evaluations(statGroup, "evaluations", "control intervals"),
      reallocations(statGroup, "reallocations",
                    "ways moved between tenants"),
      hier(hierarchy), mgr(manager), cfg(config),
      trc(simulation.tracer().registerSource(name)),
      lastDemand(manager.numTenants(), 0),
      tick(simulation.eventq(), config.interval, [this] { evaluate(); },
           name + ".tick")
{
    if (!mgr.partitioned())
        sim::fatal("IocaController needs a partitioned TenantManager");
    if (cfg.minWays == 0)
        sim::fatal("IocaController minWays must be >= 1");
}

void
IocaController::start()
{
    for (std::uint32_t id = 0; id < mgr.numTenants(); ++id)
        lastDemand[id] = tenantDemand(id);
    tick.start();
}

void
IocaController::stop()
{
    tick.stop();
}

std::uint64_t
IocaController::tenantDemand(std::uint32_t id) const
{
    std::uint64_t misses = 0;
    for (const sim::CoreId c : mgr.tenant(id).cores)
        misses += hier.mlcOf(c).misses.get();
    return misses;
}

void
IocaController::evaluate()
{
    ++evaluations;

    const std::uint32_t n = mgr.numTenants();
    std::vector<std::uint64_t> pressure(n, 0);
    for (std::uint32_t id = 0; id < n; ++id) {
        const std::uint64_t now_ = tenantDemand(id);
        pressure[id] = (now_ - lastDemand[id]) *
                       sloWeight(mgr.tenant(id).slo);
        lastDemand[id] = now_;
    }

    // Hill-climb: compare tenants by pressure per held way (cross-
    // multiplied to stay in integers); ties break toward the lower
    // tenant id, so the decision is deterministic.
    auto denser = [&](std::uint32_t a, std::uint32_t b) {
        // True when a's per-way pressure is strictly above b's.
        return pressure[a] * mgr.tenant(b).ways >
               pressure[b] * mgr.tenant(a).ways;
    };
    std::int32_t donor = -1;
    std::int32_t receiver = -1;
    for (std::uint32_t id = 0; id < n; ++id) {
        if (receiver < 0 ||
            denser(id, static_cast<std::uint32_t>(receiver)))
            receiver = static_cast<std::int32_t>(id);
        if (mgr.tenant(id).ways > cfg.minWays &&
            (donor < 0 ||
             denser(static_cast<std::uint32_t>(donor), id)))
            donor = static_cast<std::int32_t>(id);
    }
    if (donor < 0 || receiver < 0 || donor == receiver)
        return;
    const auto d = static_cast<std::uint32_t>(donor);
    const auto r = static_cast<std::uint32_t>(receiver);
    if (!denser(r, d))
        return;
    if (pressure[r] - pressure[d] < cfg.moveThreshold)
        return;

    std::vector<std::uint32_t> counts(n);
    for (std::uint32_t id = 0; id < n; ++id)
        counts[id] = mgr.tenant(id).ways;
    --counts[d];
    ++counts[r];
    mgr.setPartition(counts);
    ++reallocations;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::TenantRealloc, now(),
                       /*pktId=*/0, d, r);
}

void
IocaController::serialize(ckpt::Serializer &s) const
{
    for (const std::uint64_t v : lastDemand)
        s.writeU64(v);
    ckpt::serializeEvent(s, tick);
}

void
IocaController::unserialize(ckpt::Deserializer &d)
{
    for (auto &v : lastDemand)
        v = d.readU64();
    ckpt::unserializeEvent(d, &tick);
}

} // namespace tenant
