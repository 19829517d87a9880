/**
 * @file
 * IOCA-style adaptive CAT controller.
 *
 * IOCA ("I/O-aware LLC management for multi-tenant platforms")
 * periodically re-divides the LLC's non-I/O ways between tenants from
 * runtime telemetry, instead of the static equal split. This
 * reproduction implements the same control shape as a pluggable
 * alternative to IDIO's DdioWayTuner: every interval it measures each
 * tenant's demand (MLC misses of the member cores, weighted by SLO
 * class), and moves ONE way from the tenant with the least pressure
 * per held way to the tenant with the most — a deterministic
 * hill-climb with a minimum-ways floor, so best-effort aggressors
 * drain down to the floor while latency-critical tenants grow.
 *
 * All decisions are pure functions of checkpointed state (counter
 * snapshots + the periodic event), so a restored run reallocates at
 * exactly the ticks the uninterrupted run would.
 */

#ifndef IDIO_TENANT_IOCA_HH
#define IDIO_TENANT_IOCA_HH

#include "cache/hierarchy.hh"
#include "sim/periodic.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"
#include "tenant/manager.hh"
#include "trace/tracer.hh"

namespace tenant
{

/**
 * Periodic way-reallocation controller over a TenantManager.
 */
class IocaController : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    IocaController(sim::Simulation &simulation, const std::string &name,
                   cache::MemoryHierarchy &hierarchy,
                   TenantManager &manager);

    /** Re-evaluation cadence (the only value any workload uses). */
    static constexpr sim::Tick interval = 50 * sim::oneUs;

    /** Floor below which no tenant partition may shrink (ditto). */
    static constexpr std::uint32_t minWays = 1;

    /**
     * Minimum weighted-pressure gap (receiver minus donor, per
     * interval) before a way moves; damps oscillation on balanced
     * load. The only value any workload uses.
     */
    static constexpr std::uint64_t moveThreshold = 64;

    /** Begin the monitoring loop. */
    void start();

    /** @{ Counters. */
    stats::Counter evaluations;
    stats::Counter reallocations;
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    void evaluate();

    /** Cumulative MLC misses over @p id 's member cores. */
    std::uint64_t tenantDemand(std::uint32_t id) const;

    cache::MemoryHierarchy &hier;
    TenantManager &mgr;
    trace::Source trc;
    std::vector<std::uint64_t> lastDemand;
    sim::PeriodicEvent tick;
};

} // namespace tenant

#endif // IDIO_TENANT_IOCA_HH
