/**
 * @file
 * Full-system builder.
 *
 * TestSystem instantiates and wires one complete simulated server from
 * an ExperimentConfig. Two I/O layouts exist: the legacy one (one
 * single-queue NIC port + mempool + PMD + network function per NF
 * core, EP-rule steering) and the multi-queue one (cfg.rxQueues != 0:
 * one shared port with a ring per core, RSS/RETA steering over a
 * synthetic flow population — the paper's actual machine shape).
 * The whole machine is one timing domain on one event queue.
 * cfg.tenants switches the legacy layout into tenant mode: per-tenant
 * NF kinds/traffic on the NF cores, aggressor cores for antagonist
 * tenants, and a tenant::TenantManager (plus optional
 * IocaController) programming the LLC's CAT way partition. Every
 * bench, example and integration test builds on this class.
 */

#ifndef IDIO_HARNESS_SYSTEM_HH
#define IDIO_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "dpdk/mbuf.hh"
#include "dpdk/rx_queue.hh"
#include "gen/traffic.hh"
#include "harness/experiment_config.hh"
#include "harness/timeline.hh"
#include "idio/controller.hh"
#include "mem/phys_alloc.hh"
#include "nf/l2fwd.hh"
#include "nf/llc_antagonist.hh"
#include "nf/touch_drop.hh"
#include "nic/nic.hh"
#include "sim/checker/invariant_checker.hh"
#include "sim/simulation.hh"
#include "tenant/ioca.hh"
#include "tenant/manager.hh"

namespace harness
{

/** Snapshot of system-wide transaction counts. */
struct Totals
{
    std::uint64_t mlcWritebacks = 0;   ///< MLC->LLC evictions
    std::uint64_t nfMlcWritebacks = 0; ///< same, NF cores only
    std::uint64_t mlcPcieInvals = 0;   ///< MLC invals by DMA writes
    std::uint64_t llcWritebacks = 0;   ///< LLC->DRAM dirty evictions
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t rxPackets = 0;
    std::uint64_t rxDrops = 0;
    std::uint64_t processedPackets = 0;

    Totals operator-(const Totals &o) const;

    /** Field-wise equality; the sweep determinism tests rely on it. */
    bool operator==(const Totals &o) const = default;
};

/**
 * Per-tenant slice of the run (tenant mode only). Latency percentiles
 * are exact nearest-rank over the merged samples of the tenant's NFs;
 * antagonist tenants report zero traffic.
 */
struct TenantTotals
{
    std::string name;
    std::uint64_t rxPackets = 0;
    std::uint64_t rxDrops = 0;
    std::uint64_t processedPackets = 0;
    std::uint64_t mlcWritebacks = 0; ///< member cores, dirty + clean
    sim::Tick p50 = 0;               ///< per-packet latency, ticks
    sim::Tick p99 = 0;
    sim::Tick p999 = 0;
    std::uint32_t ways = 0; ///< current partition (0 = unpartitioned)

    bool operator==(const TenantTotals &o) const = default;
};

/**
 * One wired simulated server.
 */
class TestSystem
{
  public:
    explicit TestSystem(const ExperimentConfig &config);
    ~TestSystem();

    TestSystem(const TestSystem &) = delete;
    TestSystem &operator=(const TestSystem &) = delete;

    /** Start all components (NFs, traffic, control planes). */
    void start();

    /**
     * Simulated-time grid of the invariant sweeps: runFor() sweeps
     * once after a call that crossed a multiple of it. The rule is
     * stateless, so cold, forked, restored and sleeping runs sweep at
     * the same points.
     */
    static constexpr sim::Tick checkGrid = 100 * sim::oneUs;

    /**
     * Run for @p duration more simulated time, then sweep the
     * invariant checker if the call crossed a checkGrid point.
     */
    void runFor(sim::Tick duration);

    /**
     * Serialize the full dynamic state (ckpt::save). Must be called
     * between events — i.e.\ from harness code around runFor()
     * boundaries — on a started system.
     */
    std::vector<std::uint8_t> checkpoint();

    /**
     * Overwrite this (started) system's dynamic state with @p blob.
     * The system must have been built from the same configuration and
     * seed as the one that produced the blob; any drift is fatal.
     * Subsequent execution is bit-identical to the checkpointed run.
     */
    void restore(const std::vector<std::uint8_t> &blob);

    /** @{ Component access. */
    sim::Simulation &simulation() { return sim_; }
    cache::MemoryHierarchy &hierarchy() { return *hier; }
    idio::IdioController &controller() { return *ctrl; }
    nic::Nic &nicPort(std::uint32_t i) { return *nics[i]; }
    cpu::Core &core(std::uint32_t i) { return *cores[i]; }
    nf::NetworkFunction &nf(std::uint32_t i) { return *nfs[i]; }
    dpdk::Mempool &mempool(std::uint32_t i) { return *pools[i]; }
    gen::TrafficSource &trafficGen(std::uint32_t i) { return *gens[i]; }
    nf::LlcAntagonist *antagonist() { return antag.get(); }
    tenant::TenantManager *tenantManager() { return tenantMgr.get(); }
    tenant::IocaController *iocaController() { return ioca.get(); }
    sim::InvariantChecker &invariantChecker() { return *checker; }
    TimelineRecorder &timeline() { return *recorder; }
    mem::PhysAllocator &allocator() { return alloc; }
    const ExperimentConfig &config() const { return cfg; }
    std::uint32_t numNfs() const
    {
        return static_cast<std::uint32_t>(nfs.size());
    }
    /** @} */

    /** Current transaction totals. */
    Totals totals() const;

    /** Per-tenant totals (empty outside tenant mode). */
    std::vector<TenantTotals> tenantTotals() const;

    /** Register the default figure series on the timeline. */
    void trackDefaultSeries();

  private:
    ExperimentConfig cfg;
    sim::Simulation sim_;
    mem::PhysAllocator alloc;

    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::IdioController> ctrl;
    std::vector<std::unique_ptr<nic::Nic>> nics;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::vector<std::unique_ptr<dpdk::Mempool>> pools;
    std::vector<std::unique_ptr<dpdk::RxQueue>> rxqs;
    std::vector<std::unique_ptr<nf::NetworkFunction>> nfs;
    std::vector<std::unique_ptr<gen::TrafficSource>> gens;
    std::unique_ptr<nf::LlcAntagonist> antag;
    std::vector<std::unique_ptr<nf::LlcAntagonist>> tenantAntags;
    std::unique_ptr<tenant::TenantManager> tenantMgr;
    std::unique_ptr<tenant::IocaController> ioca;
    std::unique_ptr<sim::InvariantChecker> checker;
    std::unique_ptr<TimelineRecorder> recorder;

    void validateTenantConfig() const;
    void buildTenants();

    bool started = false;
};

} // namespace harness

#endif // IDIO_HARNESS_SYSTEM_HH
