/**
 * @file
 * MemoryHierarchy implementation.
 */

#include "hierarchy.hh"

#include "ckpt/serializer.hh"
#include "mem/phys_alloc.hh"
#include "sim/checker/invariant_checker.hh"
#include "sim/simulation.hh"

namespace cache
{

MemoryHierarchy::MemoryHierarchy(sim::Simulation &simulation,
                                 const std::string &name,
                                 const HierarchyConfig &config)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      directDramWrites(statGroup, "directDramWrites",
                       "inbound DMA writes steered straight to DRAM"),
      selfInvalFaults(statGroup, "selfInvalFaults",
                      "self-invalidates refused on non-Invalidatable "
                      "pages"),
      pcieReads(statGroup, "pcieReads", "outbound DMA cacheline reads"),
      pcieWrites(statGroup, "pcieWrites",
                 "inbound DMA cacheline writes"),
      coherenceMigrations(statGroup, "coherenceMigrations",
                          "lines migrated between private caches"),
      cfg(config), trc(simulation.tracer().registerSource(name))
{
    if (cfg.numCores == 0 || cfg.numCores > 63)
        sim::fatal("numCores %u out of range [1, 63]", cfg.numCores);

    allocMasks.reserve(cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        allocMasks.push_back(cfg.coreLlcMask(c));

    l1Lat = cfg.cyclesToTicks(cfg.l1.latencyCycles);
    mlcLat = cfg.cyclesToTicks(cfg.mlc.latencyCycles);
    llcLat = cfg.cyclesToTicks(cfg.llcPerCore.latencyCycles);

    std::uint64_t totalMlcLines = 0;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        const std::string coreName =
            name + ".core" + std::to_string(c);
        l1s.push_back(std::make_unique<PrivateCache>(
            simulation, coreName + ".l1d", cfg.l1.sizeBytes,
            cfg.l1.assoc, cfg.replacement));
        mlcs.push_back(std::make_unique<PrivateCache>(
            simulation, coreName + ".mlc", cfg.mlcSize(c),
            cfg.mlc.assoc, cfg.replacement));
        totalMlcLines += cfg.mlcSize(c) / mem::lineSize;
    }
    l1Watches.resize(cfg.numCores);

    sharedLlc = std::make_unique<NonInclusiveLlc>(
        simulation, name + ".llc", cfg.llcSizeBytes(),
        cfg.llcPerCore.assoc, cfg.ddioWays, cfg.replacement);

    // !(x > 0) also catches NaN; the cap keeps the cast defined.
    const double entries =
        static_cast<double>(totalMlcLines) * cfg.directoryCoverage;
    if (!(cfg.directoryCoverage > 0) || !(entries < 0x1p40))
        sim::fatal("directoryCoverage %g must be finite and > 0",
                   cfg.directoryCoverage);
    const auto dirEntries = static_cast<std::uint64_t>(entries);
    dir = std::make_unique<MlcDirectory>(simulation, name + ".dir",
                                         dirEntries, cfg.directoryAssoc,
                                         cfg.replacement, cfg.numCores);

    dramModel =
        std::make_unique<mem::DramModel>(simulation, name + ".dram");
}

mem::AccessResult
MemoryHierarchy::coreRead(sim::CoreId core, sim::Addr addr)
{
    return coreAccess(core, addr, mem::AccessType::Read);
}

mem::AccessResult
MemoryHierarchy::coreWrite(sim::CoreId core, sim::Addr addr)
{
    return coreAccess(core, addr, mem::AccessType::Write);
}

mem::AccessResult
MemoryHierarchy::coreAccess(sim::CoreId core, sim::Addr addr,
                            mem::AccessType type)
{
    addr = mem::lineAlign(addr);
    PrivateCache &l1c = *l1s[core];
    PrivateCache &mlcc = *mlcs[core];
    const bool isWrite = (type == mem::AccessType::Write);

    sim::Tick lat = l1Lat;

    // L1 hit.
    if (LineRef ref = l1c.probe(addr)) {
        ++l1c.hits;
        l1c.tags().touch(ref);
        if (isWrite)
            ref.setDirty();
        return {lat, mem::HitLevel::L1};
    }
    ++l1c.misses;

    lat += mlcLat;

    // MLC hit: fill L1 and serve. The first demand hit retires a
    // prefetched line (the prefetch was useful).
    if (LineRef ref = mlcc.probe(addr)) {
        ++mlcc.hits;
        mlcc.tags().touch(ref);
        if (ref.prefetched()) {
            ref.setPrefetched(false);
            if (prefetchRetireObserver)
                prefetchRetireObserver(core);
        }
        l1Fill(core, addr, isWrite);
        return {lat, mem::HitLevel::MLC};
    }
    ++mlcc.misses;

    lat += llcLat;

    // Migratory coherence: another core's private caches may hold the
    // (possibly dirty) line; pull it over before consulting LLC/DRAM.
    {
        bool dirty = false;
        bool io = false;
        if (migrateFromPeers(core, addr, &dirty, &io)) {
            installMlc(core, addr, dirty, io, false);
            l1Fill(core, addr, isWrite);
            return {lat, mem::HitLevel::LLC};
        }
    }

    // LLC lookup: a hit moves the data out of the LLC into the MLC
    // (the tag conceptually moves to the Excl-MLC directory, Fig. 2
    // steps A-2.1 / B-2.1).
    bool dirty = false;
    bool io = false;
    mem::HitLevel level;
    if (LineRef ref = sharedLlc->probe(addr)) {
        ++sharedLlc->hits;
        ++sharedLlc->demandMoves;
        dirty = ref.dirty();
        io = ref.io();
        sharedLlc->tags().invalidate(ref);
        level = mem::HitLevel::LLC;
    } else {
        ++sharedLlc->misses;
        lat += dramModel->access(mem::AccessType::Read);
        level = mem::HitLevel::DRAM;
    }

    installMlc(core, addr, dirty, io, false);
    l1Fill(core, addr, isWrite);
    return {lat, level};
}

void
MemoryHierarchy::installMlc(sim::CoreId core, sim::Addr addr, bool dirty,
                            bool io, bool isPrefetch)
{
    PrivateCache &mlcc = *mlcs[core];
    const LineRef slot = mlcc.tags().findFillSlot(addr);
    if (slot.valid())
        evictMlcVictim(core, slot.line());
    mlcc.tags().fill(slot, addr, dirty, io).setPrefetched(isPrefetch);
    if (isPrefetch) {
        ++mlcc.prefetchFills;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheMlcPrefetchFill,
                           now(), 0, core, addr);
    } else {
        ++mlcc.fills;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheMlcFill, now(),
                           0, core, addr);
    }

    DirectoryVictim dv = dir->add(core, addr);
    if (dv.valid)
        handleDirectoryVictim(dv);
}

void
MemoryHierarchy::evictMlcVictim(sim::CoreId core, CacheLine victim)
{
    notePrefetchGone(core, victim.prefetched);

    // Merge a dirtier L1 copy into the outgoing victim and drop it
    // (the L1-subset-of-MLC invariant).
    bool l1Dirty = false;
    dropFromL1(core, victim.addr, &l1Dirty);
    victim.dirty = victim.dirty || l1Dirty;

    dir->remove(core, victim.addr);

    PrivateCache &mlcc = *mlcs[core];
    if (victim.dirty)
        ++mlcc.writebacks;
    else
        ++mlcc.cleanEvictions;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheMlcEvict, now(), 0,
                       victim.dirty ? 1 : 0, victim.addr);

    llcInsertVictim(victim.addr, victim.dirty, victim.io,
                    allocMasks[core]);
    if (mlcWbObserver)
        mlcWbObserver(core);
}

void
MemoryHierarchy::llcInsertVictim(sim::Addr addr, bool dirty, bool io,
                                 WayMask allocMask)
{
    ++sharedLlc->victimInserts;
    if (LineRef ref = sharedLlc->probe(addr)) {
        // Rare non-exclusive leftover: update in place.
        ref.setDirty(ref.dirty() || dirty);
        ref.setIo(ref.io() || io);
        sharedLlc->tags().touch(ref);
        return;
    }
    const LineRef slot = sharedLlc->tags().findFillSlot(addr, allocMask);
    if (slot.valid())
        evictLlcLine(slot);
    sharedLlc->tags().fill(slot, addr, dirty, io);
}

void
MemoryHierarchy::evictLlcLine(const LineRef &line)
{
    if (line.dirty()) {
        dramModel->access(mem::AccessType::Write);
        ++sharedLlc->writebacks;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheLlcWb, now(),
                           0, 0, line.addr());
    } else {
        ++sharedLlc->cleanDrops;
    }
}

void
MemoryHierarchy::l1Fill(sim::CoreId core, sim::Addr addr, bool makeDirty)
{
    PrivateCache &l1c = *l1s[core];
    if constexpr (sim::InvariantChecker::compiledIn)
        SIM_ASSERT(!l1c.contains(addr), "L1 fill of a line in L1");
    const LineRef slot = l1c.tags().findFillSlot(addr);
    if (slot.valid()) {
        // Write a dirty L1 victim through to its MLC line.
        if (slot.dirty()) {
            LineRef mlcRef = mlcs[core]->probe(slot.addr());
            SIM_ASSERT(mlcRef,
                       "L1 victim not present in MLC (inclusion "
                       "violated)");
            mlcRef.setDirty();
        }
        l1c.tags().invalidate(slot);
    }
    l1c.tags().fill(slot, addr, makeDirty, false);
    ++l1c.fills;
}

void
MemoryHierarchy::repeatL1Hit(sim::CoreId core, sim::Addr addr,
                             std::uint64_t n)
{
    PrivateCache &l1c = *l1s[core];
    const LineRef ref = l1c.probe(mem::lineAlign(addr));
    SIM_ASSERT(ref, "repeated L1 hit on a line not in L1");
    l1c.hits += n;
    l1c.tags().touchRepeat(ref, n);
}

void
MemoryHierarchy::dropFromL1(sim::CoreId core, sim::Addr addr,
                            bool *dirtyOut)
{
    // A sleeping core's skipped reads stop repeating once the line
    // goes: wake it while its hits can still be credited.
    if (l1Watches[core].line == mem::lineAlign(addr))
        l1Watches[core].onDrop();
    PrivateCache &l1c = *l1s[core];
    if (LineRef ref = l1c.probe(addr)) {
        if (dirtyOut)
            *dirtyOut = ref.dirty();
        l1c.tags().invalidate(ref);
    } else if (dirtyOut) {
        *dirtyOut = false;
    }
}

void
MemoryHierarchy::invalidateMlcCopies(sim::Addr addr)
{
    const LineRef entry = dir->lookup(addr);
    if (!entry)
        return;
    const sim::CoreId c = dir->owner(entry);
    dir->drop(entry);
    dropFromL1(c, addr);
    if (LineRef ref = mlcs[c]->probe(addr)) {
        notePrefetchGone(c, ref.prefetched());
        mlcs[c]->tags().invalidate(ref);
        ++mlcs[c]->pcieInvals;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CachePcieInval, now(),
                           0, c, addr);
    }
}

bool
MemoryHierarchy::migrateFromPeers(sim::CoreId requester, sim::Addr addr,
                                  bool *dirtyOut, bool *ioOut)
{
    const LineRef entry = dir->lookup(addr);
    if (!entry || dir->owner(entry) == requester)
        return false;
    const sim::CoreId c = dir->owner(entry);
    dir->drop(entry);

    bool l1Dirty = false;
    dropFromL1(c, addr, &l1Dirty);
    const LineRef ref = mlcs[c]->probe(addr);
    if (!ref)
        return false;
    *dirtyOut = *dirtyOut || ref.dirty() || l1Dirty;
    *ioOut = *ioOut || ref.io();
    notePrefetchGone(c, ref.prefetched());
    mlcs[c]->tags().invalidate(ref);
    ++coherenceMigrations;
    return true;
}

void
MemoryHierarchy::handleDirectoryVictim(const DirectoryVictim &victim)
{
    // The directory lost track of this line; its MLC copy must go. A
    // dirty copy is written back into the LLC like a normal victim.
    const sim::CoreId c = victim.owner;
    bool l1Dirty = false;
    dropFromL1(c, victim.addr, &l1Dirty);
    const LineRef ref = mlcs[c]->probe(victim.addr);
    if (!ref)
        return;
    const bool dirty = ref.dirty() || l1Dirty;
    const bool io = ref.io();
    notePrefetchGone(c, ref.prefetched());
    mlcs[c]->tags().invalidate(ref);
    ++mlcs[c]->backInvals;
    if (dirty)
        ++mlcs[c]->writebacks;
    else
        ++mlcs[c]->cleanEvictions;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheMlcEvict, now(), 0,
                       dirty ? 1 : 0, victim.addr);
    llcInsertVictim(victim.addr, dirty, io, allocMasks[c]);
    if (mlcWbObserver)
        mlcWbObserver(c);
}

bool
MemoryHierarchy::coreInvalidate(sim::CoreId core, sim::Addr addr)
{
    return selfInvalidate(core, mem::lineAlign(addr)) !=
           SelfInval::Fault;
}

MemoryHierarchy::SelfInval
MemoryHierarchy::selfInvalidate(sim::CoreId core, sim::Addr addr)
{
    if (cfg.pageAttributes && !cfg.pageAttributes->isInvalidatable(addr)) {
        ++selfInvalFaults;
        return SelfInval::Fault;
    }

    dropFromL1(core, addr);
    SelfInval result = SelfInval::MlcMiss;
    if (LineRef ref = mlcs[core]->probe(addr)) {
        notePrefetchGone(core, ref.prefetched());
        mlcs[core]->tags().invalidate(ref);
        ++mlcs[core]->selfInvals;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheSelfInval,
                           now(), 0, core, addr);
        // Only an MLC copy is tracked: on a miss there is no entry.
        dir->remove(core, addr);
        result = SelfInval::MlcDrop;
    }

    if (LineRef ref = sharedLlc->probe(addr)) {
        sharedLlc->tags().invalidate(ref);
        ++sharedLlc->selfInvals;
    }
    return result;
}

std::uint64_t
MemoryHierarchy::invalidateRange(sim::CoreId core, sim::Addr addr,
                                 std::uint64_t bytes)
{
    std::uint64_t dropped = 0;
    sim::Addr a = mem::lineAlign(addr);
    for (std::uint64_t n = mem::linesSpanned(addr, bytes); n > 0;
         --n, a += mem::lineSize)
        dropped += selfInvalidate(core, a) == SelfInval::MlcDrop;
    return dropped;
}

void
MemoryHierarchy::pcieWrite(sim::Addr addr)
{
    addr = mem::lineAlign(addr);
    ++pcieWrites;

    // P1/P2: drop MLC copies (the whole line is being overwritten).
    invalidateMlcCopies(addr);

    // P2/P3/P4: in-place update wherever the line already lives.
    if (LineRef ref = sharedLlc->probe(addr)) {
        ref.setDirty();
        ref.setIo();
        sharedLlc->tags().touch(ref);
        ++sharedLlc->ddioUpdates;
        IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheDdioUpdate,
                           now(), 0, 0, addr);
        return;
    }

    // P1/P5: write-allocate into the DDIO ways.
    const LineRef slot =
        sharedLlc->tags().findFillSlot(addr, sharedLlc->ddioMask());
    const bool displaced = slot.valid();
    if (displaced) {
        evictLlcLine(slot);
        ++sharedLlc->ddioWayEvictions;
    }
    sharedLlc->tags().fill(slot, addr, true, true).setDdioAlloc();
    ++sharedLlc->ddioAllocs;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheDdioAlloc, now(),
                       0, displaced ? 1 : 0, addr);
}

void
MemoryHierarchy::pcieWriteDirectDram(sim::Addr addr)
{
    addr = mem::lineAlign(addr);
    ++pcieWrites;
    ++directDramWrites;
    IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheDramDirect, now(),
                       0, 0, addr);

    invalidateMlcCopies(addr);
    if (LineRef ref = sharedLlc->probe(addr)) {
        // Cached copy is stale after the overwrite; drop silently.
        sharedLlc->tags().invalidate(ref);
    }
    dramModel->access(mem::AccessType::Write);
}

sim::Tick
MemoryHierarchy::pcieRead(sim::Addr addr)
{
    addr = mem::lineAlign(addr);
    ++pcieReads;

    // Pull a dirty MLC copy back into the LLC and invalidate it
    // (paper Fig. 3 right: egress reads invalidate MLC copies).
    if (const LineRef entry = dir->lookup(addr)) {
        const sim::CoreId c = dir->owner(entry);
        dir->drop(entry);
        bool l1Dirty = false;
        dropFromL1(c, addr, &l1Dirty);
        if (LineRef ref = mlcs[c]->probe(addr)) {
            const bool dirty = ref.dirty() || l1Dirty;
            const bool io = ref.io();
            notePrefetchGone(c, ref.prefetched());
            mlcs[c]->tags().invalidate(ref);
            ++mlcs[c]->pcieInvals;
            IDIO_TRACE_INSTANT(trc, trace::EventKind::CachePcieInval,
                               now(), 0, c, addr);
            if (dirty) {
                ++mlcs[c]->writebacks;
                IDIO_TRACE_INSTANT(trc, trace::EventKind::CacheMlcEvict,
                                   now(), 0, 1, addr);
                llcInsertVictim(addr, true, io, ~WayMask(0));
                if (mlcWbObserver)
                    mlcWbObserver(c);
            }
        }
    }

    if (LineRef ref = sharedLlc->probe(addr)) {
        sharedLlc->tags().touch(ref);
        return llcLat;
    }
    return dramModel->access(mem::AccessType::Read);
}

bool
MemoryHierarchy::mlcPrefetch(sim::CoreId core, sim::Addr addr)
{
    addr = mem::lineAlign(addr);

    if (mlcs[core]->contains(addr))
        return false;

    // A prefetch probe that finds the line owned by another core's
    // private caches drops the hint: the data there may be dirty, and
    // stealing it on a speculative hint would thrash. (DMA hints never
    // hit this case — the inbound write already invalidated all MLC
    // copies — but the guard keeps the single-owner invariant under
    // arbitrary usage.) This core's MLC just missed, so a tracked
    // line is another core's.
    if (dir->isTracked(addr))
        return false;

    bool dirty = false;
    bool io = false;
    if (LineRef ref = sharedLlc->probe(addr)) {
        dirty = ref.dirty();
        io = ref.io();
        ++sharedLlc->demandMoves;
        sharedLlc->tags().invalidate(ref);
    } else {
        dramModel->access(mem::AccessType::Read);
    }

    installMlc(core, addr, dirty, io, true);
    return true;
}

std::uint64_t
MemoryHierarchy::stateBytes() const
{
    std::uint64_t n = sharedLlc->tags().stateBytes() +
                      dir->tags().stateBytes();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c)
        n += l1s[c]->tags().stateBytes() + mlcs[c]->tags().stateBytes();
    return n;
}

std::uint64_t
MemoryHierarchy::totalMlcWritebacks() const
{
    std::uint64_t n = 0;
    for (const auto &m : mlcs)
        n += m->writebacks.get() + m->cleanEvictions.get();
    return n;
}

std::uint64_t
MemoryHierarchy::totalMlcPcieInvals() const
{
    std::uint64_t n = 0;
    for (const auto &m : mlcs)
        n += m->pcieInvals.get();
    return n;
}

void
MemoryHierarchy::setCoreAllocMask(sim::CoreId core, WayMask mask)
{
    if ((mask & lowWays(sharedLlc->tags().assoc())) == 0)
        sim::fatal("core %u alloc mask %#llx selects no LLC way",
                   core, static_cast<unsigned long long>(mask));
    allocMasks[core] = mask;
}

void
MemoryHierarchy::serialize(ckpt::Serializer &s) const
{
    // Only the runtime-mutable CAT masks: cache contents live in the
    // child objects and everything else is rebuilt by construction.
    for (const WayMask m : allocMasks)
        s.writeU64(m);
}

void
MemoryHierarchy::unserialize(ckpt::Deserializer &d)
{
    for (auto &m : allocMasks)
        m = d.readU64();
}

} // namespace cache
