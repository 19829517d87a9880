/**
 * @file
 * Tenant descriptors for multi-tenant LLC management.
 *
 * A Tenant is one co-located workload sharing the simulated server: a
 * set of cores and a service class describing how the platform should
 * weigh it when cache capacity is contended (IOCA's setting:
 * latency-critical NFs next to throughput batch jobs and best-effort
 * aggressors). Tenants own a CAT-style LLC way mask; the
 * TenantManager installs it into the MemoryHierarchy's per-core
 * allocation masks, keeping the low DDIO ways as the shared I/O
 * partition.
 */

#ifndef IDIO_TENANT_TENANT_HH
#define IDIO_TENANT_TENANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "sim/types.hh"

namespace tenant
{

/** Service class of one tenant (IOCA-style SLO tiers). */
enum class SloClass : std::uint8_t
{
    LatencyCritical, ///< p99-bound (RPC-like NF)
    Throughput,      ///< goodput-bound (batch NF)
    BestEffort,      ///< unprotected (aggressors, background jobs)
};

/** Printable class name. */
const char *sloClassName(SloClass slo);

/**
 * Telemetry weight of one miss for the adaptive controller: pressure
 * from latency-critical tenants counts more, best-effort pressure not
 * at all (an unprotected tenant never attracts capacity, which is
 * exactly the noisy-neighbor containment IOCA argues for).
 */
std::uint32_t sloWeight(SloClass slo);

/**
 * One tenant of the simulated server.
 */
struct Tenant
{
    std::uint32_t id = 0;
    std::string name;
    SloClass slo = SloClass::Throughput;

    /** True when the tenant runs LLC aggressors instead of NFs. */
    bool antagonist = false;

    /** Member cores (one NF pipeline or one aggressor each). */
    std::vector<sim::CoreId> cores;

    /** Current LLC allocation mask of the tenant's cores. */
    cache::WayMask mask = ~cache::WayMask(0);

    /** Ways held in the partitioned region (0 = unpartitioned). */
    std::uint32_t ways = 0;
};

} // namespace tenant

#endif // IDIO_TENANT_TENANT_HH
