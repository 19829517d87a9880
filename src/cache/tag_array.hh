/**
 * @file
 * Generic set-associative tag array.
 *
 * TagArray is the storage substrate shared by the private caches, the
 * non-inclusive LLC, and the Excl-MLC directory. It stores one
 * CacheLine per (set, way), performs lookups by cacheline address, and
 * delegates victim choice to a ReplacementPolicy with masked candidate
 * sets.
 */

#ifndef IDIO_CACHE_TAG_ARRAY_HH
#define IDIO_CACHE_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/replacement.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cache
{

/**
 * State of one cacheline slot.
 *
 * `io` is a sticky provenance bit: set when the line was produced by a
 * DMA write and carried along as the line migrates between levels. It
 * feeds the DMA-bloating occupancy statistics (paper Sec. III, Obs. 3).
 */
struct CacheLine
{
    sim::Addr addr = 0; ///< cacheline-aligned address
    bool valid = false;
    bool dirty = false;
    bool io = false;

    /**
     * Set on MLC lines installed by an IDIO prefetch and cleared on
     * the first demand hit; feeds the CPU-paced prefetcher's
     * outstanding-line accounting.
     */
    bool prefetched = false;

    /**
     * Set on LLC lines placed by a DDIO write-allocation and cleared
     * when the line leaves or the partition shrinks past it. The
     * invariant checker uses it to prove write-allocations stay
     * confined to the configured DDIO ways.
     */
    bool ddioAlloc = false;

    /** Presence bit-vector; used only by the MLC directory. */
    std::uint64_t sharers = 0;
};

/** Location of a line inside a TagArray. */
struct LineRef
{
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    CacheLine *line = nullptr;

    explicit operator bool() const { return line != nullptr; }
};

/**
 * Set-associative array of CacheLines.
 */
class TagArray
{
  public:
    /**
     * @param sizeBytes Total capacity (must be numSets*assoc*64).
     * @param assoc Ways per set.
     * @param policy Replacement policy (owned).
     */
    TagArray(std::uint64_t sizeBytes, std::uint32_t assoc,
             std::unique_ptr<ReplacementPolicy> policy);

    /** Construct with an explicit set count instead of a byte size. */
    static TagArray withSets(std::uint32_t numSets, std::uint32_t assoc,
                             std::unique_ptr<ReplacementPolicy> policy);

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return nWays; }
    std::uint64_t capacityBytes() const
    {
        return std::uint64_t(nSets) * nWays * mem::lineSize;
    }

    /**
     * Set index for an address. Power-of-two set counts (every Table I
     * geometry) take a bitmask fast path; the generic modulo is kept
     * for odd geometries such as coverage-scaled directories.
     */
    std::uint32_t
    setIndex(sim::Addr addr) const
    {
        const std::uint64_t line = mem::lineNumber(addr);
        if (setsPow2)
            return static_cast<std::uint32_t>(line & setMask);
        return static_cast<std::uint32_t>(line % nSets);
    }

    /**
     * Find a valid line matching @p addr; LineRef is null on miss.
     *
     * Scans the dense tag side-array rather than the CacheLine structs:
     * one set's tags span two cachelines instead of six, and invalid
     * slots hold a misaligned sentinel that can never compare equal to
     * a line-aligned probe, so the loop is a single branchless compare
     * per way.
     */
    LineRef
    lookup(sim::Addr addr)
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        const std::uint64_t *t = &tags[std::size_t(set) * nWays];
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (t[w] == addr)
                return LineRef{set, w, &lineAt(set, w)};
        }
        return LineRef{set, 0, nullptr};
    }

    /** const lookup. */
    const CacheLine *
    peek(sim::Addr addr) const
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        const std::uint64_t *t = &tags[std::size_t(set) * nWays];
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (t[w] == addr)
                return &lineAt(set, w);
        }
        return nullptr;
    }

    /** Record a use of an existing line. */
    void
    touch(const LineRef &ref)
    {
        if (lruFast)
            lruFast->touchFast(ref.set, ref.way);
        else
            policy->touch(ref.set, ref.way);
    }

    /** Record @p n uses of an existing line, as n touch() calls. */
    void
    touchRepeat(const LineRef &ref, std::uint64_t n)
    {
        if (lruFast)
            lruFast->touchRepeatFast(ref.set, ref.way, n);
        else
            policy->touchRepeat(ref.set, ref.way, n);
    }

    /**
     * Choose a slot for a new fill of @p addr among @p candidates:
     * the lowest-index invalid candidate way if one exists (an O(1)
     * pick from the per-set free-way bitmask), else the policy victim.
     * The returned slot may hold a valid line the caller must evict.
     */
    LineRef
    findFillSlot(sim::Addr addr, WayMask candidates = ~WayMask(0))
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        candidates &= lowWays(nWays);
        SIM_ASSERT(candidates != 0, "no candidate ways for fill");

        const WayMask free = candidates & freeWays[set];
        if (free != 0) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(free));
            return LineRef{set, w, &lineAt(set, w)};
        }
        const std::uint32_t victim =
            lruFast ? lruFast->victimFast(set, candidates)
                    : policy->victim(set, candidates);
        return LineRef{set, victim, &lineAt(set, victim)};
    }

    /**
     * Install @p addr into @p slot (which the caller already emptied or
     * chose to overwrite) and inform the policy.
     */
    CacheLine &fill(const LineRef &slot, sim::Addr addr, bool dirty,
                    bool io);

    /** Invalidate the line in @p slot. */
    void invalidate(const LineRef &slot);

    /** Direct slot access. */
    CacheLine &
    lineAt(std::uint32_t set, std::uint32_t way)
    {
        return lines[std::size_t(set) * nWays + way];
    }

    const CacheLine &
    lineAt(std::uint32_t set, std::uint32_t way) const
    {
        return lines[std::size_t(set) * nWays + way];
    }

    /** Count valid lines satisfying @p pred (pred may be null = all). */
    std::uint64_t
    countValid(const std::function<bool(const CacheLine &,
                                        std::uint32_t way)> &pred = {})
        const;

    /** Invalidate every line. */
    void clear();

    /** The replacement policy (for tests). */
    ReplacementPolicy &replacementPolicy() { return *policy; }

    /**
     * @{ Checkpoint the array contents plus the policy state. The
     * geometry is structural (rebuilt from config); unserialize
     * validates it and recomputes the derived tag/free-way arrays.
     */
    void serialize(ckpt::Serializer &s) const;
    void unserialize(ckpt::Deserializer &d);
    /** @} */

  private:
    TagArray(std::uint32_t numSets, std::uint32_t assoc,
             std::unique_ptr<ReplacementPolicy> policy, int);

    std::uint32_t nSets;
    std::uint32_t nWays;
    bool setsPow2;          ///< nSets is a power of two
    std::uint32_t setMask;  ///< nSets - 1, valid when setsPow2
    std::unique_ptr<ReplacementPolicy> policy;

    /**
     * Non-null when the policy is the default LRU: touch/victim/fill
     * on the lookup hot path then go through LruPolicy's non-virtual
     * fast entry points instead of an indirect call per access.
     */
    LruPolicy *lruFast = nullptr;

    std::vector<CacheLine> lines;

    /**
     * Tag of slot i is invalidTag when invalid, else lines[i].addr: a
     * sentinel in the always-zero low line-offset bits keeps lookup a
     * pure compare. fill/invalidate/clear maintain the invariant.
     */
    static constexpr std::uint64_t invalidTag = 1;
    std::vector<std::uint64_t> tags;     ///< numSets * assoc
    std::vector<WayMask> freeWays;       ///< per set: bit w = way invalid
};

} // namespace cache

#endif // IDIO_CACHE_TAG_ARRAY_HH
