/**
 * @file
 * Generic set-associative tag array.
 *
 * TagArray is the storage substrate shared by the private caches, the
 * non-inclusive LLC, and the Excl-MLC directory. Each set is one
 * contiguous block of 32-bit words, padded to a multiple of 8 bytes:
 *
 *     W tags | W flag bytes, W replacement bytes, 1 clock byte,
 *     W owner bytes (directory arrays only), pad
 *
 * A slot is valid when its tag is not invalidTag, and the tag is the
 * line number (the address over 64), so a probe reads only the set's
 * block: 80 bytes for a 12-way LLC set. Simulated memory is 4 GB, so
 * every line number fits; a fill past the 32-bit range is fatal. The
 * replacement byte is an LRU stamp taken from the set's clock, or an
 * SRRIP RRPV. Random replacement uses neither; it draws from the
 * array's RNG. Migratory coherence keeps one MLC owner per line, so a
 * directory slot names its owner core in one byte.
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
    /** Presence bits, 1 << owner; directory only (0 elsewhere). */
    std::uint64_t sharers = 0;
};

/**
 * Handle on one slot of a TagArray: its (set, way) and accessors for
 * its tag and flags. Null (false) for a lookup miss. Valid until the
 * array is destroyed; fills and invalidations of the slot show through.
 */
class LineRef
{
  public:
    /**
     * Tag of an invalid slot. No line is filled with it, and a probe
     * of a line number this large or larger misses.
     */
    static constexpr std::uint32_t invalidTag = 0xffffffff;

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
    sim::Addr addr() const { return sim::Addr(*tagp) << mem::lineShift; }

    bool dirty() const { return *flagp & dirtyBit; }
    bool io() const { return *flagp & ioBit; }
    bool prefetched() const { return *flagp & prefetchedBit; }
    bool ddioAlloc() const { return *flagp & ddioAllocBit; }

    void setDirty(bool on = true) { put(dirtyBit, on); }
    void setIo(bool on = true) { put(ioBit, on); }
    void setPrefetched(bool on = true) { put(prefetchedBit, on); }
    void setDdioAlloc(bool on = true) { put(ddioAllocBit, on); }

    /** Snapshot of the slot (the owner is the directory's: 0 here). */
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

    LineRef(std::uint32_t s, std::uint32_t w, std::uint32_t *t,
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

    std::uint32_t *tagp = nullptr;
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
     * @p withOwners adds an owner byte per slot (the directory).
     */
    static TagArray withSets(std::uint32_t numSets, std::uint32_t assoc,
                             ReplKind repl, bool withOwners = false);

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
        return store.size() * sizeof(std::uint32_t) +
               freeWays.size() * sizeof(WayMask);
    }

    /**
     * Set index for an address. Power-of-two set counts (every Table I
     * geometry) take a bitmask fast path; the generic modulo is kept
     * for odd geometries such as coverage-scaled directories.
     */
    std::uint32_t
    setIndex(sim::Addr addr) const
    {
        return setOfLine(mem::lineNumber(addr));
    }

    /**
     * Find a valid line matching @p addr; null on a miss. Invalid
     * slots hold invalidTag, which no probed line number equals, so
     * the scan is one compare per way and stops at the first match.
     */
    LineRef
    lookup(sim::Addr addr)
    {
        const std::uint64_t line = mem::lineNumber(addr);
        if (line >= LineRef::invalidTag)
            return LineRef{};
        const std::uint32_t set = setOfLine(line);
        std::uint32_t *b = block(set);
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (b[w] == line)
                return slotIn(set, w, b);
        }
        return LineRef{};
    }

    /** True when @p addr is resident. */
    bool
    contains(sim::Addr addr) const
    {
        return findWay(mem::lineNumber(addr)) >= 0;
    }

    /** Owner byte of @p addr 's slot, or -1 when absent (directory). */
    int
    ownerOf(sim::Addr addr) const
    {
        const std::uint64_t line = mem::lineNumber(addr);
        const int w = findWay(line);
        return w < 0 ? -1 : flagsOf(block(setOfLine(line)))[ownerOff + w];
    }

    /** The owner byte of @p ref 's slot (directory arrays only). */
    std::uint8_t &
    owner(const LineRef &ref)
    {
        return ref.flagp[ownerOff];
    }

    std::uint8_t
    owner(const LineRef &ref) const
    {
        return ref.flagp[ownerOff];
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
        const std::uint32_t set = setIndex(addr);
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
     * and inform the policy; a directory then sets the owner. A line
     * number past the 32-bit tag range is fatal. @return the slot.
     */
    LineRef
    fill(const LineRef &slot, sim::Addr addr, bool dirty, bool io)
    {
        const std::uint64_t line = mem::lineNumber(addr);
        if (line >= LineRef::invalidTag)
            fatalLineRange(addr);
        std::uint32_t *b = block(slot.set);
        *slot.tagp = static_cast<std::uint32_t>(line);
        *slot.flagp = std::uint8_t((dirty ? LineRef::dirtyBit : 0) |
                                   (io ? LineRef::ioBit : 0));
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
     * directory, the owner as a sharer word (1 << owner); plus the
     * random policy's RNG. The tag is written as the line address.
     * The geometry is structural (rebuilt from config); unserialize
     * validates it, and in a directory fails unless every sharer
     * word has exactly one bit set, for a core below @p numOwners.
     */
    void serialize(ckpt::Serializer &s) const;
    void unserialize(ckpt::Deserializer &d, std::uint32_t numOwners = 0);
    /** @} */

  private:
    TagArray(std::uint32_t numSets, std::uint32_t assoc, ReplKind repl,
             bool withOwners, int);

    /** Set index of line number @p line (see setIndex). */
    std::uint32_t
    setOfLine(std::uint64_t line) const
    {
        if (setsPow2)
            return static_cast<std::uint32_t>(line & setMask);
        return static_cast<std::uint32_t>(line % nSets);
    }

    /** The fatal error of a fill past the 32-bit line range. */
    [[noreturn]] static void fatalLineRange(sim::Addr addr);

    /** SRRIP-HP: RRPV on insertion ("long") and the eviction value. */
    static constexpr std::uint8_t srripMax = 3;
    static constexpr std::uint8_t srripLong = srripMax - 1;

    std::uint32_t *
    block(std::uint32_t set)
    {
        return &store[std::size_t(set) * blockWords];
    }

    const std::uint32_t *
    block(std::uint32_t set) const
    {
        return &store[std::size_t(set) * blockWords];
    }

    std::uint8_t *
    flagsOf(std::uint32_t *b) const
    {
        return reinterpret_cast<std::uint8_t *>(b + nWays);
    }

    const std::uint8_t *
    flagsOf(const std::uint32_t *b) const
    {
        return reinterpret_cast<const std::uint8_t *>(b + nWays);
    }

    /** Replacement bytes of a block; the set clock follows them. */
    std::uint8_t *replOf(std::uint32_t *b) const
    {
        return flagsOf(b) + nWays;
    }

    const std::uint8_t *replOf(const std::uint32_t *b) const
    {
        return flagsOf(b) + nWays;
    }

    LineRef
    slotIn(std::uint32_t set, std::uint32_t way, std::uint32_t *b) const
    {
        return LineRef(set, way, b + way, flagsOf(b) + way);
    }

    /** Way holding line number @p line, or -1. */
    int
    findWay(std::uint64_t line) const
    {
        if (line >= LineRef::invalidTag)
            return -1;
        const std::uint32_t *b = block(setOfLine(line));
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if (b[w] == line)
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
    stampLru(std::uint32_t *b, std::uint32_t way)
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
    std::uint32_t blockWords; ///< 32-bit words per set block
    /** Owner bytes' offset from the flag bytes; 0 = no owners. */
    std::uint32_t ownerOff;

    std::vector<std::uint32_t> store;  ///< numSets blocks
    std::vector<WayMask> freeWays;     ///< per set: bit w = way invalid
    sim::Rng rng;                      ///< random replacement only
};

} // namespace cache

#endif // IDIO_CACHE_TAG_ARRAY_HH
