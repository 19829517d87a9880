/**
 * @file
 * The memory hierarchy facade.
 *
 * MemoryHierarchy wires per-core L1D+MLC private caches, the shared
 * non-inclusive LLC with DDIO ways, the Excl-MLC directory, and the
 * DRAM model, and implements the exact data-movement flows of paper
 * Figs. 1 and 2:
 *
 *  - CPU demand fills move data *out* of the LLC into the MLC (tag to
 *    directory), making the LLC a victim cache.
 *  - MLC evictions allocate into any LLC way (DMA bloating).
 *  - Inbound PCIe writes invalidate MLC copies, update LLC lines in
 *    place, or write-allocate into the DDIO ways (cases P1..P5).
 *  - Outbound PCIe reads pull dirty MLC copies back into the LLC.
 *
 * plus the IDIO extensions: MLC prefetch fills, direct-DRAM DMA writes,
 * and the self-invalidate (drop-without-writeback) instruction.
 *
 * The model is state-accurate and latency-annotated: every operation
 * updates cache state immediately and returns the latency the requester
 * should charge. Event-driven components (cores, NIC, prefetcher) pace
 * themselves with those latencies.
 */

#ifndef IDIO_CACHE_HIERARCHY_HH
#define IDIO_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/config.hh"
#include "cache/directory.hh"
#include "cache/llc.hh"
#include "cache/private_cache.hh"
#include "mem/access.hh"
#include "mem/dram.hh"
#include "sim/delegate.hh"
#include "sim/sim_object.hh"
#include "trace/tracer.hh"

namespace cache
{

/**
 * Facade over the full cache/memory hierarchy of one simulated server.
 */
class MemoryHierarchy : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * Invoked whenever an MLC eviction allocates into the LLC. A
     * sim::Delegate, not a std::function: the hook fires once per
     * writeback on the access hot path, so dispatch must stay a plain
     * indirect call with no ownership machinery.
     */
    using MlcWbObserver = sim::Delegate<void(sim::CoreId)>;

    /**
     * Invoked whenever a prefetched MLC line retires: its first
     * demand hit, or its departure from the MLC (eviction,
     * invalidation, migration). Lets a CPU-paced prefetcher track
     * outstanding prefetched lines. Delegate for the same reason as
     * MlcWbObserver; the bound object must outlive the hierarchy's
     * use of the hook.
     */
    using PrefetchRetireObserver = sim::Delegate<void(sim::CoreId)>;

    MemoryHierarchy(sim::Simulation &simulation, const std::string &name,
                    const HierarchyConfig &config);

    /** @{ CPU-side operations (one cacheline each). */
    mem::AccessResult coreRead(sim::CoreId core, sim::Addr addr);
    mem::AccessResult coreWrite(sim::CoreId core, sim::Addr addr);

    /**
     * Self-invalidate instruction (paper Sec. IV-A / V-D): drop the
     * line from the core's private caches and the LLC without any
     * writeback (the LLC drop is what the zero-copy NF flow of
     * Sec. VII needs).
     *
     * @return false when the page is not marked Invalidatable (the
     *         modelled privacy fault; the drop is suppressed).
     */
    bool coreInvalidate(sim::CoreId core, sim::Addr addr);

    /**
     * Invalidate every cacheline of [addr, addr+bytes); the multi-line
     * maintenance operation IDIO adds for DMA buffers.
     *
     * @return number of lines actually dropped from the MLC.
     */
    std::uint64_t invalidateRange(sim::CoreId core, sim::Addr addr,
                                  std::uint64_t bytes);
    /** @} */

    /** @{ Device-side operations (one cacheline each). */

    /**
     * Full-cacheline inbound DMA write on the DDIO path (Fig. 1
     * ingress, cases P1..P5).
     */
    void pcieWrite(sim::Addr addr);

    /**
     * Inbound DMA write with DCA disabled (IDIO M3): stale cached
     * copies are dropped and the data goes straight to DRAM.
     */
    void pcieWriteDirectDram(sim::Addr addr);

    /** Outbound DMA read (Fig. 1 egress). @return service latency. */
    sim::Tick pcieRead(sim::Addr addr);
    /** @} */

    /**
     * IDIO prefetch hint: move the line into @p core 's MLC (from the
     * LLC, or from DRAM when the line has left it).
     *
     * @return true when a fill actually happened.
     */
    bool mlcPrefetch(sim::CoreId core, sim::Addr addr);

    /**
     * @{ Idle-core support. A sleeping core watches the one L1 line
     * its skipped steps read: @p onDrop fires just before that line
     * leaves the core's L1 (PCIe-write invalidation, MLC eviction,
     * directory back-invalidation, migration to a peer), while the
     * skipped hits can still be credited against it. One watch per
     * core; the watcher clears it with unwatchL1().
     */
    void
    watchL1(sim::CoreId core, sim::Addr line, sim::Delegate<void()> onDrop)
    {
        l1Watches[core] = L1Watch{line, onDrop};
    }

    void unwatchL1(sim::CoreId core) { l1Watches[core] = L1Watch{}; }

    /**
     * Apply @p n more L1 read hits of @p addr by @p core: the hit
     * counter and the replacement state end exactly as after @p n
     * coreRead() hits. The line must be in the core's L1.
     */
    void repeatL1Hit(sim::CoreId core, sim::Addr addr, std::uint64_t n);
    /** @} */

    /** Register the IDIO controller's MLC-writeback telemetry hook. */
    void setMlcWbObserver(MlcWbObserver obs) { mlcWbObserver = obs; }

    /** Register the prefetch-retire hook (CPU-paced prefetcher). */
    void
    setPrefetchRetireObserver(PrefetchRetireObserver obs)
    {
        prefetchRetireObserver = obs;
    }

    /**
     * @{ Runtime CAT-style per-core LLC allocation masks.
     *
     * Initialised from HierarchyConfig::llcAllocMask and consulted on
     * every MLC-victim insertion (the CAT enforcement point: the fill
     * slot is chosen among `mask & lowWays(assoc)` ways only, so a
     * core's evictions can never displace lines outside its mask).
     * The tenant::TenantManager re-programs these at run time; the
     * masks are checkpointed so a restored run keeps the partition.
     */
    WayMask coreAllocMask(sim::CoreId core) const
    {
        return allocMasks[core];
    }
    void setCoreAllocMask(sim::CoreId core, WayMask mask);
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Component access. */
    PrivateCache &l1(sim::CoreId core) { return *l1s[core]; }
    PrivateCache &mlcOf(sim::CoreId core) { return *mlcs[core]; }
    NonInclusiveLlc &llc() { return *sharedLlc; }
    MlcDirectory &directory() { return *dir; }
    mem::DramModel &dram() { return *dramModel; }
    const HierarchyConfig &config() const { return cfg; }
    std::uint32_t numCores() const { return cfg.numCores; }
    /** @} */

    /**
     * Host bytes of the cache state: every tag array's set blocks and
     * free-way masks. A host-independent size of the cache layer.
     */
    std::uint64_t stateBytes() const;

    /** @{ Aggregates used by the figure samplers. */

    /** MLC->LLC eviction transactions (dirty + clean), all cores. */
    std::uint64_t totalMlcWritebacks() const;

    /** MLC invalidations caused by inbound PCIe writes, all cores. */
    std::uint64_t totalMlcPcieInvals() const;

    /** LLC->DRAM dirty evictions. */
    std::uint64_t llcWritebacks() const
    {
        return sharedLlc->writebacks.get();
    }
    /** @} */

    /** @{ Hierarchy-level counters. */
    stats::Counter directDramWrites;
    stats::Counter selfInvalFaults;
    stats::Counter pcieReads;
    stats::Counter pcieWrites;
    stats::Counter coherenceMigrations;
    /** @} */

  private:
    /** Install a line into a core's MLC, handling victim + directory. */
    void installMlc(sim::CoreId core, sim::Addr addr, bool dirty,
                    bool io, bool isPrefetch);

    /** Handle an MLC victim: merge L1, count, insert into LLC. */
    void evictMlcVictim(sim::CoreId core, CacheLine victim);

    /** Insert an MLC victim (or PCIe-read writeback) into the LLC. */
    void llcInsertVictim(sim::Addr addr, bool dirty, bool io,
                         WayMask allocMask);

    /** Evict a valid LLC line (DRAM write when dirty). */
    void evictLlcLine(const LineRef &line);

    /**
     * Fill @p core 's L1 with @p addr, which must be in its MLC and
     * not in its L1 (coreAccess has just missed it there).
     */
    void l1Fill(sim::CoreId core, sim::Addr addr, bool makeDirty);

    /** Drop @p addr from @p core 's L1, merging dirtiness into MLC. */
    void dropFromL1(sim::CoreId core, sim::Addr addr,
                    bool *dirtyOut = nullptr);

    /** Invalidate the owner's MLC/L1 copy (inbound DMA overwrite). */
    void invalidateMlcCopies(sim::Addr addr);

    /**
     * Migratory coherence: when another core owns the line, pull it
     * out of that core's private caches (merging dirtiness) and drop
     * its directory entry, so the requester can become the owner.
     *
     * @return true when a copy was migrated; outputs its state.
     */
    bool migrateFromPeers(sim::CoreId requester, sim::Addr addr,
                          bool *dirtyOut, bool *ioOut);

    /** Back-invalidate the owner of a directory capacity victim. */
    void handleDirectoryVictim(const DirectoryVictim &victim);

    mem::AccessResult coreAccess(sim::CoreId core, sim::Addr addr,
                                 mem::AccessType type);

    /** How a self-invalidate went: refused, or what the MLC held. */
    enum class SelfInval
    {
        Fault,   ///< page not Invalidatable; nothing dropped
        MlcMiss, ///< the MLC did not hold the line
        MlcDrop, ///< the line was dropped from the MLC
    };

    /** coreInvalidate() of line-aligned @p addr, with its outcome. */
    SelfInval selfInvalidate(sim::CoreId core, sim::Addr addr);

    /** Fire the retire hook when a departing line was prefetched. */
    void
    notePrefetchGone(sim::CoreId core, bool prefetched)
    {
        if (prefetched && prefetchRetireObserver)
            prefetchRetireObserver(core);
    }

    HierarchyConfig cfg;

    /** Runtime per-core LLC allocation masks (see coreAllocMask). */
    std::vector<WayMask> allocMasks;

    trace::Source trc;
    sim::Tick l1Lat;
    sim::Tick mlcLat;
    sim::Tick llcLat;

    std::vector<std::unique_ptr<PrivateCache>> l1s;
    std::vector<std::unique_ptr<PrivateCache>> mlcs;
    std::unique_ptr<NonInclusiveLlc> sharedLlc;
    std::unique_ptr<MlcDirectory> dir;
    std::unique_ptr<mem::DramModel> dramModel;

    MlcWbObserver mlcWbObserver;
    PrefetchRetireObserver prefetchRetireObserver;

    /** A sleeping core's watched L1 line (see watchL1). */
    struct L1Watch
    {
        sim::Addr line = ~sim::Addr(0);
        sim::Delegate<void()> onDrop;
    };
    std::vector<L1Watch> l1Watches;
};

} // namespace cache

#endif // IDIO_CACHE_HIERARCHY_HH
