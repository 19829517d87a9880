/**
 * @file
 * Generic set-associative tag array.
 *
 * TagArray is the storage substrate shared by the private caches, the
 * non-inclusive LLC, and the Excl-MLC directory. Each set is one
 * contiguous block of 64-bit words:
 *
 *     W tags | W flag bytes, W replacement bytes, 1 clock byte, pad |
 *     W sharer words (directory arrays only)
 *
 * A slot is valid when its tag is not invalidTag, and the tag is the
 * line address, so a probe reads only the set's block: two host
 * cachelines for a 12-way LLC set. The replacement byte is an LRU
 * stamp taken from the set's clock, or an SRRIP RRPV. Random
 * replacement uses neither; it draws from the array's RNG.
 */

#ifndef IDIO_CACHE_TAG_ARRAY_HH
#define IDIO_CACHE_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/replacement.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace ckpt
{
class Serializer;
class Deserializer;
}

namespace cache
{

/**
 * By-value snapshot of one slot, for the invariant checker, tests and
 * eviction handling. The live state is in the TagArray's set blocks.
 *
 * `io` is a sticky provenance bit: set when the line was produced by a
 * DMA write and carried along as the line migrates between levels. It
 * feeds the DMA-bloating occupancy statistics (paper Sec. III, Obs. 3).
 * `prefetched` marks MLC lines installed by an IDIO prefetch until
 * their first demand hit (the CPU-paced prefetcher's outstanding-line
 * accounting). `ddioAlloc` marks LLC lines placed by a DDIO
 * write-allocation; the invariant checker uses it to prove
 * write-allocations stay confined to the configured DDIO ways.
 */
struct CacheLine
{
    sim::Addr addr = 0; ///< cacheline-aligned address
    bool valid = false;
    bool dirty = false;
    bool io = false;
    bool prefetched = false;
    bool ddioAlloc = false;
    std::uint64_t sharers = 0; ///< presence bits; directory only
};

/**
 * Handle on one slot of a TagArray: its (set, way) and accessors for
 * its tag and flags. Null (false) for a lookup miss. Valid until the
 * array is destroyed; fills and invalidations of the slot show through.
 */
class LineRef
{
  public:
    /** Tag of an invalid slot: misaligned, so no probe can match it. */
    static constexpr std::uint64_t invalidTag = 1;

    /** @{ Bits of a slot's flag byte. */
    static constexpr std::uint8_t dirtyBit = 1;
    static constexpr std::uint8_t ioBit = 2;
    static constexpr std::uint8_t prefetchedBit = 4;
    static constexpr std::uint8_t ddioAllocBit = 8;
    /** @} */

    std::uint32_t set = 0;
    std::uint32_t way = 0;

    /** A null handle (a lookup miss). */
    LineRef() = default;

    explicit operator bool() const { return tagp != nullptr; }

    bool valid() const { return *tagp != invalidTag; }
    sim::Addr addr() const { return *tagp; }

    bool dirty() const { return *flagp & dirtyBit; }
    bool io() const { return *flagp & ioBit; }
    bool prefetched() const { return *flagp & prefetchedBit; }
    bool ddioAlloc() const { return *flagp & ddioAllocBit; }

    void setDirty(bool on = true) { put(dirtyBit, on); }
    void setIo(bool on = true) { put(ioBit, on); }
    void setPrefetched(bool on = true) { put(prefetchedBit, on); }
    void setDdioAlloc(bool on = true) { put(ddioAllocBit, on); }

    /** Snapshot of the slot (sharers are the directory's: 0 here). */
    CacheLine
    line() const
    {
        CacheLine l;
        if (valid()) {
            l.addr = addr();
            l.valid = true;
            l.dirty = dirty();
            l.io = io();
            l.prefetched = prefetched();
            l.ddioAlloc = ddioAlloc();
        }
        return l;
    }

  private:
    friend class TagArray;

    LineRef(std::uint32_t s, std::uint32_t w, std::uint64_t *t,
            std::uint8_t *f)
        : set(s), way(w), tagp(t), flagp(f)
    {
    }

    void
    put(std::uint8_t bit, bool on)
    {
        *flagp = on ? std::uint8_t(*flagp | bit)
                    : std::uint8_t(*flagp & ~bit);
    }

    std::uint64_t *tagp = nullptr;
    std::uint8_t *flagp = nullptr;
};

/**
 * Set-associative array of line slots, one contiguous block per set.
 */
class TagArray
{
  public:
    /**
     * @param sizeBytes Total capacity (must be numSets*assoc*64).
     * @param assoc Ways per set, in [1, 64].
     * @param repl Replacement policy.
     */
    TagArray(std::uint64_t sizeBytes, std::uint32_t assoc, ReplKind repl);

    /**
     * Construct with an explicit set count instead of a byte size.
     * @p withSharers adds a sharer word per slot (the directory).
     */
    static TagArray withSets(std::uint32_t numSets, std::uint32_t assoc,
                             ReplKind repl, bool withSharers = false);

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return nWays; }
    std::uint64_t capacityBytes() const
    {
        return std::uint64_t(nSets) * nWays * mem::lineSize;
    }

    /** Host bytes of the set blocks plus the free-way masks. */
    std::uint64_t
    stateBytes() const
    {
        return (store.size() + freeWays.size()) * sizeof(std::uint64_t);
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
     * Find a valid line matching @p addr; null on a miss. Invalid
     * slots hold a misaligned tag that never equals a line-aligned
     * probe, so the scan is one compare per way.
     */
    LineRef
    lookup(sim::Addr addr)
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        std::uint64_t *b = block(set);
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (b[w] == addr)
                return slotIn(set, w, b);
        }
        return LineRef{};
    }

    /** True when @p addr is resident. */
    bool
    contains(sim::Addr addr) const
    {
        return findWay(mem::lineAlign(addr)) >= 0;
    }

    /** Sharer word of @p addr's slot; 0 when absent (directory). */
    std::uint64_t
    sharersOf(sim::Addr addr) const
    {
        addr = mem::lineAlign(addr);
        const int w = findWay(addr);
        return w < 0 ? 0 : block(setIndex(addr))[sharerOff + w];
    }

    /** The sharer word of @p ref 's slot (directory arrays only). */
    std::uint64_t &
    sharers(const LineRef &ref)
    {
        return block(ref.set)[sharerOff + ref.way];
    }

    /** Record a use of an existing line. */
    void
    touch(const LineRef &ref)
    {
        if (kind == ReplKind::Lru) {
            stampLru(block(ref.set), ref.way);
        } else if (kind == ReplKind::Srrip) {
            replOf(block(ref.set))[ref.way] = 0; // hit promotion
        }
    }

    /**
     * Record @p n uses of an existing line, as n touch() calls: for
     * both LRU and SRRIP one touch already leaves that state.
     */
    void
    touchRepeat(const LineRef &ref, std::uint64_t n)
    {
        if (n > 0)
            touch(ref);
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
        const std::uint32_t set = setIndex(mem::lineAlign(addr));
        candidates &= lowWays(nWays);
        SIM_ASSERT(candidates != 0, "no candidate ways for fill");

        const WayMask free = candidates & freeWays[set];
        const std::uint32_t w =
            free != 0 ? static_cast<std::uint32_t>(std::countr_zero(free))
                      : victim(set, candidates);
        return slotIn(set, w, block(set));
    }

    /**
     * Install @p addr into @p slot (which the caller already emptied or
     * chose to overwrite) with the given flags, clear its other flags
     * and sharers, and inform the policy. @return the slot.
     */
    LineRef
    fill(const LineRef &slot, sim::Addr addr, bool dirty, bool io)
    {
        std::uint64_t *b = block(slot.set);
        *slot.tagp = mem::lineAlign(addr);
        *slot.flagp = std::uint8_t((dirty ? LineRef::dirtyBit : 0) |
                                   (io ? LineRef::ioBit : 0));
        if (sharerOff != 0)
            b[sharerOff + slot.way] = 0;
        freeWays[slot.set] &= ~(WayMask(1) << slot.way);
        if (kind == ReplKind::Lru)
            stampLru(b, slot.way);
        else if (kind == ReplKind::Srrip)
            replOf(b)[slot.way] = srripLong;
        return slot;
    }

    /**
     * Invalidate the line in @p slot. A set left empty restarts its
     * LRU clock: no stamp in it matters any more, and a set without
     * lines then holds no state a checkpoint must keep.
     */
    void
    invalidate(const LineRef &slot)
    {
        *slot.tagp = LineRef::invalidTag;
        *slot.flagp = 0;
        WayMask &free = freeWays[slot.set];
        free |= WayMask(1) << slot.way;
        if (free == lowWays(nWays))
            replOf(block(slot.set))[nWays] = 0;
    }

    /** Handle on slot (@p set, @p way), valid or not. */
    LineRef
    at(std::uint32_t set, std::uint32_t way)
    {
        return slotIn(set, way, block(set));
    }

    /** Snapshot of slot (@p set, @p way); all-default when invalid. */
    CacheLine lineAt(std::uint32_t set, std::uint32_t way) const;

    /** Count valid lines satisfying @p pred (pred may be null = all). */
    std::uint64_t
    countValid(const std::function<bool(const CacheLine &,
                                        std::uint32_t way)> &pred = {})
        const;

    /** Invalidate every line and reset the replacement state. */
    void clear();

    /**
     * @{ Checkpoint the valid slots: per set holding any, its index,
     * clock and, per valid way, the way, tag, flags, replacement byte
     * (LRU stamps renumbered to ranks among the valid ways) and, in a
     * directory, sharers; plus the random policy's RNG. The geometry
     * is structural (rebuilt from config); unserialize validates it.
     */
    void serialize(ckpt::Serializer &s) const;
    void unserialize(ckpt::Deserializer &d);
    /** @} */

  private:
    TagArray(std::uint32_t numSets, std::uint32_t assoc, ReplKind repl,
             bool withSharers, int);

    /** SRRIP-HP: RRPV on insertion ("long") and the eviction value. */
    static constexpr std::uint8_t srripMax = 3;
    static constexpr std::uint8_t srripLong = srripMax - 1;

    std::uint64_t *
    block(std::uint32_t set)
    {
        return &store[std::size_t(set) * blockWords];
    }

    const std::uint64_t *
    block(std::uint32_t set) const
    {
        return &store[std::size_t(set) * blockWords];
    }

    std::uint8_t *
    flagsOf(std::uint64_t *b) const
    {
        return reinterpret_cast<std::uint8_t *>(b + nWays);
    }

    const std::uint8_t *
    flagsOf(const std::uint64_t *b) const
    {
        return reinterpret_cast<const std::uint8_t *>(b + nWays);
    }

    /** Replacement bytes of a block; the set clock follows them. */
    std::uint8_t *replOf(std::uint64_t *b) const
    {
        return flagsOf(b) + nWays;
    }

    const std::uint8_t *replOf(const std::uint64_t *b) const
    {
        return flagsOf(b) + nWays;
    }

    LineRef
    slotIn(std::uint32_t set, std::uint32_t way, std::uint64_t *b) const
    {
        return LineRef(set, way, b + way, flagsOf(b) + way);
    }

    /** Way holding line-aligned @p addr, or -1. */
    int
    findWay(sim::Addr addr) const
    {
        const std::uint64_t *b = block(setIndex(addr));
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (b[w] == addr)
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * LRU: give @p way the next stamp of its set's clock. When the
     * clock would pass 255, renumber() first turns the stamps into
     * ranks, which keeps every way's order.
     */
    void
    stampLru(std::uint64_t *b, std::uint32_t way)
    {
        std::uint8_t *r = replOf(b);
        if (r[nWays] == 0xff)
            renumber(r);
        r[way] = ++r[nWays];
    }

    /** Replace a set's stamps by their ranks by (stamp, way). */
    void renumber(std::uint8_t *repl) const;

    /** Policy victim among @p candidates, all of them valid. */
    std::uint32_t
    victim(std::uint32_t set, WayMask candidates)
    {
        if (kind != ReplKind::Lru)
            return victimSlow(set, candidates);
        // Lowest stamp; strict < keeps the lowest way among equals.
        const std::uint8_t *r = replOf(block(set));
        auto best = static_cast<std::uint32_t>(std::countr_zero(candidates));
        for (WayMask m = candidates & (candidates - 1); m != 0;
             m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            if (r[w] < r[best])
                best = w;
        }
        return best;
    }

    /** SRRIP and random victims. */
    std::uint32_t victimSlow(std::uint32_t set, WayMask candidates);

    /** Reset every block to empty slots and fresh policy state. */
    void resetBlocks();

    std::uint32_t nSets;
    std::uint32_t nWays;
    bool setsPow2;          ///< nSets is a power of two
    std::uint32_t setMask;  ///< nSets - 1, valid when setsPow2
    ReplKind kind;
    std::uint32_t blockWords; ///< 64-bit words per set block
    std::uint32_t sharerOff;  ///< word offset of the sharers; 0 = none

    std::vector<std::uint64_t> store;  ///< numSets blocks
    std::vector<WayMask> freeWays;     ///< per set: bit w = way invalid
    sim::Rng rng;                      ///< random replacement only
};

} // namespace cache

#endif // IDIO_CACHE_TAG_ARRAY_HH
