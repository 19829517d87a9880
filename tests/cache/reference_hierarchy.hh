/**
 * @file
 * Reference cache hierarchy for the lockstep oracle test.
 *
 * A deliberately naive model of the paper's Fig. 1/2 data movement
 * (DESIGN.md §5), written for obviousness rather than speed. Each
 * level is one std::unordered_map from line address to line state,
 * plus an explicit LRU list of resident lines per set (front = most
 * recently used). It shares no code with src/cache/: no tag arrays,
 * no way bitmasks, no replacement-policy objects. Ways are tracked
 * only because DDIO and CAT masks restrict which ways a fill may take
 * and which line a fill may displace.
 *
 * Counters use the stats-registry names of cache::MemoryHierarchy
 * ("sys.core0.mlc.writebacks"), so the test can compare every counter
 * of the real hierarchy against this one by name.
 */

#ifndef IDIO_TESTS_CACHE_REFERENCE_HIERARCHY_HH
#define IDIO_TESTS_CACHE_REFERENCE_HIERARCHY_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/config.hh"
#include "mem/access.hh"
#include "sim/types.hh"

namespace cachetest
{

/** State of one resident line in a reference level. */
struct RefLine
{
    std::uint32_t way = 0;
    bool dirty = false;
    bool io = false;
    bool prefetched = false;
    bool ddioAlloc = false;
    std::uint64_t sharers = 0; ///< directory only
};

/** One set-associative level with true LRU per set. */
class RefLevel
{
  public:
    RefLevel(std::uint64_t sets, std::uint32_t ways)
        : nSets(sets), nWays(ways), lru(sets)
    {
    }

    std::uint64_t setOf(sim::Addr a) const { return (a / 64) % nSets; }

    RefLine *
    find(sim::Addr a)
    {
        auto it = lines.find(a);
        return it == lines.end() ? nullptr : &it->second;
    }

    void
    touch(sim::Addr a)
    {
        auto &order = lru[setOf(a)];
        order.remove(a);
        order.push_front(a);
    }

    void
    erase(sim::Addr a)
    {
        lines.erase(a);
        lru[setOf(a)].remove(a);
    }

    /**
     * The way a fill of @p a takes among the ways in @p mask: the
     * lowest-numbered empty one, else the way of the least recently
     * used line in the mask, which goes to @p victim.
     */
    std::uint32_t
    pickWay(sim::Addr a, std::uint64_t mask,
            std::optional<sim::Addr> &victim)
    {
        victim.reset();
        const auto &order = lru[setOf(a)];
        std::vector<bool> used(nWays, false);
        for (sim::Addr r : order)
            used[lines.at(r).way] = true;
        for (std::uint32_t w = 0; w < nWays && w < 64; ++w) {
            if ((mask >> w & 1) && !used[w])
                return w;
        }
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::uint32_t w = lines.at(*it).way;
            if (mask >> w & 1) {
                victim = *it;
                return w;
            }
        }
        throw std::logic_error("no way in the fill mask");
    }

    RefLine &
    insert(sim::Addr a, std::uint32_t way, bool dirty, bool io)
    {
        RefLine &l = lines[a];
        l = RefLine{};
        l.way = way;
        l.dirty = dirty;
        l.io = io;
        lru[setOf(a)].push_front(a);
        return l;
    }

    const std::unordered_map<sim::Addr, RefLine> &
    contents() const
    {
        return lines;
    }

  private:
    std::uint64_t nSets;
    std::uint32_t nWays;
    std::unordered_map<sim::Addr, RefLine> lines;
    std::vector<std::list<sim::Addr>> lru;
};

/** The whole reference hierarchy: L1s, MLCs, LLC, directory, DRAM. */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const cache::HierarchyConfig &config)
        : cfg(config), llcLevel(sets(cfg.llcSizeBytes(),
                                     cfg.llcPerCore.assoc),
                                cfg.llcPerCore.assoc),
          dirLevel(dirSets(config), config.directoryAssoc),
          ddioWays(config.ddioWays)
    {
        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            l1s.emplace_back(sets(cfg.l1.sizeBytes, cfg.l1.assoc),
                             cfg.l1.assoc);
            mlcs.emplace_back(sets(cfg.mlcSize(c), cfg.mlc.assoc),
                              cfg.mlc.assoc);
            masks.push_back(cfg.coreLlcMask(c));
        }
    }

    /** Counter values by registry name; absent = 0. */
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t retires = 0;    ///< prefetched lines retired
    std::uint64_t wbNotices = 0;  ///< MLC-writeback observer calls

    RefLevel &l1(sim::CoreId c) { return l1s[c]; }
    RefLevel &mlc(sim::CoreId c) { return mlcs[c]; }
    RefLevel &llc() { return llcLevel; }
    RefLevel &dir() { return dirLevel; }

    mem::HitLevel
    access(sim::CoreId c, sim::Addr a, bool write)
    {
        if (RefLine *l = l1s[c].find(a)) {
            count(l1n(c) + "hits");
            l1s[c].touch(a);
            l->dirty = l->dirty || write;
            return mem::HitLevel::L1;
        }
        count(l1n(c) + "misses");
        if (RefLine *l = mlcs[c].find(a)) {
            count(mlcn(c) + "hits");
            mlcs[c].touch(a);
            if (l->prefetched) {
                l->prefetched = false;
                ++retires;
            }
            l1Fill(c, a, write);
            return mem::HitLevel::MLC;
        }
        count(mlcn(c) + "misses");

        // Migratory coherence: a peer's private copy moves over.
        bool dirty = false, io = false, found = false;
        for (sim::CoreId p : sharers(a, c)) {
            const bool l1Dirty = dropL1(p, a);
            if (RefLine *l = mlcs[p].find(a)) {
                dirty = dirty || l->dirty || l1Dirty;
                io = io || l->io;
                dropMlc(p, a);
                found = true;
            }
            dirRemove(p, a);
        }
        if (found) {
            count("sys.coherenceMigrations");
            installMlc(c, a, dirty, io, false);
            l1Fill(c, a, write);
            return mem::HitLevel::LLC;
        }

        // The LLC is a victim cache: a hit moves the line out.
        mem::HitLevel level = mem::HitLevel::DRAM;
        if (RefLine *l = llcLevel.find(a)) {
            count("sys.llc.hits");
            count("sys.llc.demandMoves");
            dirty = l->dirty;
            io = l->io;
            llcLevel.erase(a);
            level = mem::HitLevel::LLC;
        } else {
            count("sys.llc.misses");
            count("sys.dram.reads");
        }
        installMlc(c, a, dirty, io, false);
        l1Fill(c, a, write);
        return level;
    }

    void
    selfInvalidate(sim::CoreId c, sim::Addr a)
    {
        dropL1(c, a);
        if (mlcs[c].find(a)) {
            dropMlc(c, a);
            count(mlcn(c) + "selfInvals");
        }
        dirRemove(c, a);
        if (llcLevel.find(a)) {
            llcLevel.erase(a);
            count("sys.llc.selfInvals");
        }
    }

    /** Inbound DMA write (P1..P5), or M3's DRAM-direct variant. */
    void
    pcieWrite(sim::Addr a, bool directDram)
    {
        count("sys.pcieWrites");
        if (directDram)
            count("sys.directDramWrites");
        for (sim::CoreId p : sharers(a, ~0u)) {
            dropL1(p, a);
            if (mlcs[p].find(a)) {
                dropMlc(p, a);
                count(mlcn(p) + "pcieInvals");
            }
        }
        dirLevel.erase(a);
        if (directDram) {
            llcLevel.erase(a);
            count("sys.dram.writes");
            return;
        }
        if (RefLine *l = llcLevel.find(a)) {
            l->dirty = l->io = true;
            llcLevel.touch(a);
            count("sys.llc.ddioUpdates");
            return;
        }
        std::optional<sim::Addr> victim;
        const std::uint32_t w =
            llcLevel.pickWay(a, cache::lowWays(ddioWays), victim);
        if (victim) {
            evictLlc(*victim);
            count("sys.llc.ddioWayEvictions");
        }
        llcLevel.insert(a, w, true, true).ddioAlloc = true;
        count("sys.llc.ddioAllocs");
    }

    /** Outbound DMA read; @return where the data came from. */
    mem::HitLevel
    pcieRead(sim::Addr a)
    {
        count("sys.pcieReads");
        for (sim::CoreId p : sharers(a, ~0u)) {
            const bool l1Dirty = dropL1(p, a);
            if (RefLine *l = mlcs[p].find(a)) {
                const bool dirty = l->dirty || l1Dirty;
                const bool io = l->io;
                dropMlc(p, a);
                count(mlcn(p) + "pcieInvals");
                if (dirty) {
                    count(mlcn(p) + "writebacks");
                    llcInsert(a, true, io, ~std::uint64_t(0));
                    ++wbNotices;
                }
            }
        }
        dirLevel.erase(a);
        if (llcLevel.find(a)) {
            llcLevel.touch(a);
            return mem::HitLevel::LLC;
        }
        count("sys.dram.reads");
        return mem::HitLevel::DRAM;
    }

    /** IDIO prefetch hint (M2). @return true when a fill happened. */
    bool
    prefetch(sim::CoreId c, sim::Addr a)
    {
        if (mlcs[c].find(a) || !sharers(a, c).empty())
            return false;
        bool dirty = false, io = false;
        if (RefLine *l = llcLevel.find(a)) {
            dirty = l->dirty;
            io = l->io;
            count("sys.llc.demandMoves");
            llcLevel.erase(a);
        } else {
            count("sys.dram.reads");
        }
        installMlc(c, a, dirty, io, true);
        return true;
    }

    void
    repeatL1Hit(sim::CoreId c, sim::Addr a, std::uint64_t n)
    {
        counters[l1n(c) + "hits"] += n;
        l1s[c].touch(a);
    }

    void setAllocMask(sim::CoreId c, std::uint64_t m) { masks[c] = m; }

    void
    setDdioWays(std::uint32_t ways)
    {
        for (auto &[addr, l] : llcLevel.contents()) {
            if (l.way >= ways && l.way < ddioWays)
                llcLevel.find(addr)->ddioAlloc = false;
        }
        ddioWays = ways;
    }

  private:
    static std::uint64_t
    sets(std::uint64_t bytes, std::uint32_t assoc)
    {
        return bytes / 64 / assoc;
    }

    static std::uint64_t
    dirSets(const cache::HierarchyConfig &c)
    {
        std::uint64_t mlcLines = 0;
        for (std::uint32_t i = 0; i < c.numCores; ++i)
            mlcLines += c.mlcSize(i) / 64;
        const auto entries = static_cast<std::uint64_t>(
            static_cast<double>(mlcLines) * c.directoryCoverage);
        return std::max<std::uint64_t>(1, entries / c.directoryAssoc);
    }

    void count(const std::string &name) { ++counters[name]; }
    std::string l1n(sim::CoreId c) { return core(c) + "l1d."; }
    std::string mlcn(sim::CoreId c) { return core(c) + "mlc."; }
    std::string core(sim::CoreId c)
    {
        return "sys.core" + std::to_string(c) + ".";
    }

    /** Cores the directory lists for @p a, except @p skip. */
    std::vector<sim::CoreId>
    sharers(sim::Addr a, sim::CoreId skip)
    {
        std::vector<sim::CoreId> out;
        if (RefLine *e = dirLevel.find(a)) {
            for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
                if ((e->sharers >> c & 1) && c != skip)
                    out.push_back(c);
            }
        }
        return out;
    }

    void
    dirRemove(sim::CoreId c, sim::Addr a)
    {
        if (RefLine *e = dirLevel.find(a)) {
            e->sharers &= ~(std::uint64_t(1) << c);
            if (e->sharers == 0)
                dirLevel.erase(a);
        }
    }

    /** Drop @p a from core @p c 's L1; @return its dirtiness. */
    bool
    dropL1(sim::CoreId c, sim::Addr a)
    {
        const RefLine *l = l1s[c].find(a);
        const bool dirty = l && l->dirty;
        l1s[c].erase(a);
        return dirty;
    }

    void
    dropMlc(sim::CoreId c, sim::Addr a)
    {
        if (mlcs[c].find(a)->prefetched)
            ++retires;
        mlcs[c].erase(a);
    }

    void
    l1Fill(sim::CoreId c, sim::Addr a, bool write)
    {
        if (RefLine *l = l1s[c].find(a)) {
            l1s[c].touch(a);
            l->dirty = l->dirty || write;
            return;
        }
        std::optional<sim::Addr> victim;
        const std::uint32_t w = l1s[c].pickWay(a, ~0ull, victim);
        if (victim) {
            if (l1s[c].find(*victim)->dirty)
                mlcs[c].find(*victim)->dirty = true;
            l1s[c].erase(*victim);
        }
        l1s[c].insert(a, w, write, false);
        count(l1n(c) + "fills");
    }

    void
    installMlc(sim::CoreId c, sim::Addr a, bool dirty, bool io,
               bool isPrefetch)
    {
        std::optional<sim::Addr> victim;
        const std::uint32_t w = mlcs[c].pickWay(a, ~0ull, victim);
        if (victim) {
            const RefLine v = *mlcs[c].find(*victim);
            dropMlc(c, *victim);
            const bool l1Dirty = dropL1(c, *victim);
            const bool vDirty = v.dirty || l1Dirty;
            dirRemove(c, *victim);
            count(mlcn(c) + (vDirty ? "writebacks" : "cleanEvictions"));
            llcInsert(*victim, vDirty, v.io, masks[c]);
            ++wbNotices;
        }
        mlcs[c].insert(a, w, dirty, io).prefetched = isPrefetch;
        count(mlcn(c) + (isPrefetch ? "prefetchFills" : "fills"));

        // Track the new owner; a full directory set back-invalidates
        // every MLC copy of its LRU entry.
        count("sys.dir.lookups");
        if (RefLine *e = dirLevel.find(a)) {
            e->sharers |= std::uint64_t(1) << c;
            dirLevel.touch(a);
            return;
        }
        std::optional<sim::Addr> dv;
        const std::uint32_t dw = dirLevel.pickWay(a, ~0ull, dv);
        std::uint64_t dvSharers = 0;
        if (dv) {
            dvSharers = dirLevel.find(*dv)->sharers;
            dirLevel.erase(*dv);
            count("sys.dir.capacityEvictions");
        }
        dirLevel.insert(a, dw, false, false).sharers = std::uint64_t(1)
                                                       << c;
        count("sys.dir.insertions");
        for (sim::CoreId p = 0; dv && p < cfg.numCores; ++p) {
            if (!(dvSharers >> p & 1))
                continue;
            const bool l1Dirty = dropL1(p, *dv);
            if (RefLine *l = mlcs[p].find(*dv)) {
                const bool vDirty = l->dirty || l1Dirty;
                const bool vIo = l->io;
                dropMlc(p, *dv);
                count(mlcn(p) + "backInvals");
                count(mlcn(p) +
                      (vDirty ? "writebacks" : "cleanEvictions"));
                llcInsert(*dv, vDirty, vIo, masks[p]);
                ++wbNotices;
            }
        }
    }

    void
    llcInsert(sim::Addr a, bool dirty, bool io, std::uint64_t mask)
    {
        count("sys.llc.victimInserts");
        if (RefLine *l = llcLevel.find(a)) {
            l->dirty = l->dirty || dirty;
            l->io = l->io || io;
            llcLevel.touch(a);
            return;
        }
        std::optional<sim::Addr> victim;
        const std::uint32_t w = llcLevel.pickWay(
            a, mask & cache::lowWays(cfg.llcPerCore.assoc), victim);
        if (victim)
            evictLlc(*victim);
        llcLevel.insert(a, w, dirty, io);
    }

    void
    evictLlc(sim::Addr a)
    {
        if (llcLevel.find(a)->dirty) {
            count("sys.dram.writes");
            count("sys.llc.writebacks");
        } else {
            count("sys.llc.cleanDrops");
        }
        llcLevel.erase(a);
    }

    cache::HierarchyConfig cfg;
    std::vector<RefLevel> l1s;
    std::vector<RefLevel> mlcs;
    RefLevel llcLevel;
    RefLevel dirLevel;
    std::uint32_t ddioWays;
    std::vector<std::uint64_t> masks;
};

} // namespace cachetest

#endif // IDIO_TESTS_CACHE_REFERENCE_HIERARCHY_HH
