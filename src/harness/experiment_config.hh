/**
 * @file
 * Whole-experiment configuration (paper Table I + Sec. VI).
 *
 * ExperimentConfig aggregates every knob of one simulated run: the
 * cache hierarchy, the IDIO policy, the NIC/ring geometry, the
 * workload (its tenant set), and the traffic pattern. The run-wide
 * workload fields (numNfs, nfKind, traffic, rateGbps, rxQueues,
 * withAntagonist) describe the default tenant set; a non-empty
 * `tenants` replaces them. The defaults reproduce the paper's
 * methodology: two TouchDrop instances, 1024-entry rings, 1514-byte
 * packets, 10 ms burst period, burst length equal to ring-size
 * packets.
 */

#ifndef IDIO_HARNESS_EXPERIMENT_CONFIG_HH
#define IDIO_HARNESS_EXPERIMENT_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "idio/config.hh"
#include "dpdk/mbuf.hh"
#include "nf/network_function.hh"
#include "nic/nic.hh"
#include "tenant/tenant.hh"

namespace harness
{

/** Which network function runs on a core. */
enum class NfKind
{
    TouchDrop,
    CopyTouchDrop, ///< copy-mode recycling (paper Sec. II-B, M1)
    L2Fwd,
    L2FwdDropPayload,
};

/** Printable NF name. */
const char *nfKindName(NfKind kind);

/** Traffic pattern. */
enum class TrafficKind
{
    Steady,
    Bursty,
    Poisson,
    None, ///< no built-in generator (caller drives the NICs)
};

/** How the LLC's non-I/O ways are shared between tenants. */
enum class TenantPartition
{
    None,   ///< all tenants may allocate anywhere (DDIO/IDIO sharing)
    Static, ///< equal CAT split, fixed for the whole run
    Ioca,   ///< adaptive split driven by tenant::IocaController
};

/** Printable partition-mode name. */
const char *tenantPartitionName(TenantPartition p);

/**
 * One tenant of a multi-tenant run (cfg.tenants), standing in for the
 * run-wide workload fields. Each NF core of an NF tenant gets its own
 * single-queue port with its own flow list, generator and the tenant's
 * NF kind, traffic, rate, stop tick and DSCP class; an antagonist
 * tenant gets aggressor cores (shrunken MLC, no NF pipeline) instead.
 * Tenancy on a multi-queue port is rejected.
 */
struct TenantSpec
{
    std::string name;
    tenant::SloClass slo = tenant::SloClass::Throughput;

    /** Cores (one NF pipeline each; aggressors for antagonists). */
    std::uint32_t cores = 1;

    /** True: run LLC aggressors instead of NF pipelines. */
    bool antagonist = false;

    /** @{ NF-tenant workload (ignored for antagonists). */
    NfKind nfKind = NfKind::TouchDrop;
    TrafficKind traffic = TrafficKind::Bursty;

    /** Per-port rate, Gbps (0 = the run-wide cfg.rateGbps; < 0 is fatal). */
    double rateGbps = 0.0;

    /** Stop this tenant's traffic at this tick (departure churn). */
    sim::Tick stopAt = sim::maxTick;
    /** @} */
};

/**
 * Everything needed to build one TestSystem.
 */
struct ExperimentConfig
{
    /**
     * Cache hierarchy (Table I defaults). numCores, mlcSizeOverride
     * and pageAttributes follow the machine plan: TestSystem refuses
     * a config that sets them.
     */
    cache::HierarchyConfig hier;

    /** IDIO policy (defaults to the DDIO baseline). */
    idio::IdioConfig idio;

    /** Per-port NIC settings (ring size, PCIe bandwidth). */
    nic::NicConfig nic;

    /** NF execution-loop settings (M1 follows idio.policy). */
    nf::NfConfig nf;

    /**
     * Working-set bytes of every aggressor core (default 8 MB: larger
     * than the LLC).
     */
    std::uint64_t antagonistBufferBytes = 8ull << 20;

    /**
     * @{ Workload layout of the default tenant set (ignored when
     * `tenants` is set): numNfs NF cores of nfKind, plus one
     * aggressor core when withAntagonist.
     */
    std::uint32_t numNfs = 2;
    NfKind nfKind = NfKind::TouchDrop;
    bool withAntagonist = false;

    /**
     * RX queues on one shared NIC port (0 = legacy layout: one
     * single-queue port per NF). When set, it must equal numNfs: the
     * system builds one multi-queue port whose flow director steers
     * packets across per-core rings via a 128-entry RSS
     * indirection table, and NF i polls queue i. This is the paper's
     * actual many-core machine shape (one 100G port, per-core rings).
     */
    std::uint32_t rxQueues = 0;

    /**
     * Total flow population for the multi-queue layout (0 = legacy
     * flowsPerNf * numNfs). Flows are synthesized procedurally, so
     * millions are affordable; steering is RSS over the port's RETA.
     */
    std::uint64_t totalFlows = 0;
    /** @} */

    /** @{ Multi-tenant layout (src/tenant). */

    /**
     * Tenant set. Non-empty replaces the default tenant set: the NF
     * cores come from the specs (NF cores first in spec order, then
     * antagonist cores), and numNfs/nfKind/traffic/rateGbps are
     * ignored in favour of each tenant's spec. Incompatible with
     * multiQueue() and withAntagonist.
     */
    std::vector<TenantSpec> tenants;

    /** LLC sharing mode between the tenants. */
    TenantPartition tenantPartition = TenantPartition::None;

    bool tenantMode() const { return !tenants.empty(); }
    /** @} */

    /** @{ Traffic. */
    TrafficKind traffic = TrafficKind::Bursty;

    /** Steady rate or burst line rate, Gbps, per NIC port. */
    double rateGbps = 100.0;

    /** Burst period (paper: 10 ms). */
    sim::Tick burstPeriod = 10 * sim::oneMs;

    /** Packets per burst (0 = ring size, the paper's rule). */
    std::uint32_t burstPackets = 0;

    /** Ethernet frame bytes. */
    std::uint32_t frameBytes = 1514;

    /**
     * Flows per NF (all steered to its core). A field because
     * perfbench's NIC probe reads it.
     */
    std::uint32_t flowsPerNf = 4; // lint: allow(config-field)
    /** @} */

    /** Buffer recycling order (see dpdk::Mempool; FIFO is faithful). */
    dpdk::RecycleOrder recycleOrder = dpdk::RecycleOrder::Fifo;

    /** RNG seed for the whole run. */
    std::uint64_t seed = 1;

    /** Apply a named IDIO policy preset. */
    void applyPolicy(idio::Policy p) { idio = {.policy = p}; }

    /** True when the run uses the one-port multi-queue layout. */
    bool multiQueue() const { return rxQueues != 0; }

    /** Effective packets per burst (per generator). */
    std::uint32_t
    effectiveBurstPackets() const
    {
        if (burstPackets)
            return burstPackets;
        // Paper rule: burst length = ring-size packets. The
        // multi-queue layout has one generator feeding rxQueues
        // rings, so the aggregate burst scales with the queue count.
        return multiQueue() ? nic.ringSize * rxQueues : nic.ringSize;
    }

    /**
     * Packets one burst delivers across the whole system: the legacy
     * layout runs one generator per NF, the multi-queue layout one
     * generator for the shared port.
     */
    std::uint64_t
    expectedBurstTotal() const
    {
        return multiQueue()
                   ? effectiveBurstPackets()
                   : std::uint64_t(effectiveBurstPackets()) * numNfs;
    }

    /**
     * One-line summary for bench output, describing the machine plan
     * (harness/machine_plan.hh) this config builds.
     */
    std::string summary() const;
};

} // namespace harness

#endif // IDIO_HARNESS_EXPERIMENT_CONFIG_HH
