/**
 * @file
 * TagArray implementation.
 */

#include "tag_array.hh"

#include <algorithm>
#include <array>

#include "ckpt/serializer.hh"

namespace cache
{

namespace
{

void
checkAssoc(std::uint32_t assoc)
{
    if (assoc == 0 || assoc > 64)
        sim::fatal("cache associativity %u out of range [1, 64]", assoc);
}

std::uint32_t
setsFromSize(std::uint64_t sizeBytes, std::uint32_t assoc)
{
    checkAssoc(assoc);
    const std::uint64_t lines = sizeBytes / mem::lineSize;
    if (lines == 0 || lines % assoc != 0) {
        sim::fatal("cache size %llu not divisible into %u ways of "
                   "64B lines",
                   (unsigned long long)sizeBytes, assoc);
    }
    return static_cast<std::uint32_t>(lines / assoc);
}

/**
 * 32-bit words of a set block: W tags, then W flag bytes, W
 * replacement bytes, the clock byte and W owner bytes in a directory,
 * padded so every block is a multiple of 8 bytes.
 */
std::uint32_t
blockWordsFor(std::uint32_t assoc, bool withOwners)
{
    const std::uint32_t bytes =
        4 * assoc + 2 * assoc + 1 + (withOwners ? assoc : 0);
    return (bytes + 7) / 8 * 2;
}

/** Seed of the random policy (the historical policy default). */
constexpr std::uint64_t randomSeed = 7;

/** Marks a tag-array record in a checkpoint section. */
constexpr std::array<char, 4> tagsMagic = {'T', 'A', 'G', 'S'};

} // anonymous namespace

TagArray::TagArray(std::uint64_t sizeBytes, std::uint32_t assoc,
                   ReplKind repl)
    : TagArray(setsFromSize(sizeBytes, assoc), assoc, repl, false, 0)
{
}

TagArray::TagArray(std::uint32_t numSets, std::uint32_t assoc,
                   ReplKind repl, bool withOwners, int)
    : nSets(numSets), nWays(assoc),
      setsPow2(numSets != 0 && (numSets & (numSets - 1)) == 0),
      setMask(numSets - 1), kind(repl),
      blockWords(blockWordsFor(assoc, withOwners)),
      ownerOff(withOwners ? 2 * assoc + 1 : 0), rng(randomSeed)
{
    resetBlocks();
}

TagArray
TagArray::withSets(std::uint32_t numSets, std::uint32_t assoc,
                   ReplKind repl, bool withOwners)
{
    checkAssoc(assoc);
    if (numSets == 0)
        sim::fatal("tag array needs at least one set");
    return TagArray(numSets, assoc, repl, withOwners, 0);
}

void
TagArray::fatalLineRange(sim::Addr addr)
{
    sim::fatal("cache fill of %#llx: line number past the 32-bit tag "
               "range (simulated memory is 4 GB)",
               (unsigned long long)addr);
}

void
TagArray::resetBlocks()
{
    // Build one empty block and copy it into every set: the store is
    // written once, which is most of a machine's construction time.
    std::vector<std::uint32_t> blank(blockWords, 0);
    std::fill(blank.begin(), blank.begin() + nWays, LineRef::invalidTag);
    if (kind == ReplKind::Srrip)
        std::fill_n(replOf(blank.data()), nWays, srripMax);
    store.clear();
    store.reserve(std::size_t(nSets) * blockWords);
    for (std::uint32_t s = 0; s < nSets; ++s)
        store.insert(store.end(), blank.begin(), blank.end());
    freeWays.assign(nSets, lowWays(nWays));
}

void
TagArray::renumber(std::uint8_t *repl) const
{
    std::array<std::uint8_t, 64> rank{};
    for (std::uint32_t i = 0; i < nWays; ++i) {
        for (std::uint32_t j = 0; j < nWays; ++j) {
            if (repl[j] < repl[i] || (repl[j] == repl[i] && j < i))
                ++rank[i];
        }
    }
    std::copy(rank.begin(), rank.begin() + nWays, repl);
    repl[nWays] = static_cast<std::uint8_t>(nWays - 1);
}

std::uint32_t
TagArray::victimSlow(std::uint32_t set, WayMask candidates)
{
    if (kind == ReplKind::Random) {
        std::uint64_t pick =
            rng.below(static_cast<std::uint64_t>(std::popcount(candidates)));
        WayMask m = candidates;
        for (; pick > 0; --pick)
            m &= m - 1;
        return static_cast<std::uint32_t>(std::countr_zero(m));
    }
    // SRRIP: the lowest candidate at the distant RRPV; age all
    // candidates until one gets there.
    std::uint8_t *r = replOf(block(set));
    for (;;) {
        for (WayMask m = candidates; m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            if (r[w] >= srripMax)
                return w;
        }
        for (WayMask m = candidates; m != 0; m &= m - 1)
            ++r[std::countr_zero(m)];
    }
}

CacheLine
TagArray::lineAt(std::uint32_t set, std::uint32_t way) const
{
    const std::uint32_t *b = block(set);
    CacheLine l;
    if (b[way] == LineRef::invalidTag)
        return l;
    const std::uint8_t *f = flagsOf(b) + way;
    l.addr = sim::Addr(b[way]) << mem::lineShift;
    l.valid = true;
    l.dirty = *f & LineRef::dirtyBit;
    l.io = *f & LineRef::ioBit;
    l.prefetched = *f & LineRef::prefetchedBit;
    l.ddioAlloc = *f & LineRef::ddioAllocBit;
    l.sharers = ownerOff != 0 ? std::uint64_t(1) << f[ownerOff] : 0;
    return l;
}

std::uint64_t
TagArray::countValid(
    const std::function<bool(const CacheLine &, std::uint32_t)> &pred)
    const
{
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < nSets; ++s) {
        const WayMask used = lowWays(nWays) & ~freeWays[s];
        if (!pred) {
            n += static_cast<std::uint64_t>(std::popcount(used));
            continue;
        }
        for (WayMask m = used; m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            if (pred(lineAt(s, w), w))
                ++n;
        }
    }
    return n;
}

void
TagArray::clear()
{
    resetBlocks();
}

void
TagArray::serialize(ckpt::Serializer &s) const
{
    s.writeBytes(tagsMagic.data(), tagsMagic.size());
    s.writeU32(nSets);
    s.writeU32(nWays);
    s.writeU8(static_cast<std::uint8_t>(kind));
    s.writeBool(ownerOff != 0);
    if (kind == ReplKind::Random) {
        for (const std::uint64_t w : rng.state())
            s.writeU64(w);
    }

    std::uint32_t liveSets = 0;
    for (std::uint32_t set = 0; set < nSets; ++set)
        liveSets += freeWays[set] != lowWays(nWays);
    s.writeU32(liveSets);

    for (std::uint32_t set = 0; set < nSets; ++set) {
        const WayMask used = lowWays(nWays) & ~freeWays[set];
        if (used == 0)
            continue;
        const std::uint32_t *b = block(set);
        const std::uint8_t *r = replOf(b);
        s.writeU32(set);
        s.writeU8(r[nWays]);
        s.writeU8(static_cast<std::uint8_t>(std::popcount(used)));
        for (WayMask m = used; m != 0; m &= m - 1) {
            const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
            // An LRU stamp is saved as its rank among the valid ways,
            // so equal orders save equal bytes whatever the stale
            // stamps of invalid ways were.
            std::uint8_t repl = r[w];
            if (kind == ReplKind::Lru) {
                repl = 0;
                for (WayMask o = used; o != 0; o &= o - 1) {
                    const auto v = std::countr_zero(o);
                    repl += r[v] < r[w] ||
                            (r[v] == r[w] && std::uint32_t(v) < w);
                }
            }
            const std::uint8_t *f = flagsOf(b) + w;
            s.writeU8(static_cast<std::uint8_t>(w));
            s.writeU64(sim::Addr(b[w]) << mem::lineShift);
            s.writeU8(*f);
            s.writeU8(repl);
            if (ownerOff != 0)
                s.writeU64(std::uint64_t(1) << f[ownerOff]);
        }
    }
}

void
TagArray::unserialize(ckpt::Deserializer &d, std::uint32_t numOwners)
{
    std::array<char, 4> magic;
    d.readBytes(magic.data(), magic.size());
    if (magic != tagsMagic)
        sim::fatal("ckpt: tag-array record missing (not format v5)");
    const std::uint32_t sets = d.readU32();
    const std::uint32_t ways = d.readU32();
    const std::uint8_t policy = d.readU8();
    const bool withOwners = d.readBool();
    if (sets != nSets || ways != nWays ||
        policy != static_cast<std::uint8_t>(kind) ||
        withOwners != (ownerOff != 0)) {
        sim::fatal("ckpt: tag-array geometry mismatch (checkpoint "
                   "%ux%u policy %u, config %ux%u policy %u)",
                   sets, ways, policy, nSets, nWays,
                   static_cast<unsigned>(kind));
    }
    if (kind == ReplKind::Random) {
        std::array<std::uint64_t, 4> st;
        for (std::uint64_t &w : st)
            w = d.readU64();
        rng.setState(st);
    }

    resetBlocks();
    const std::uint32_t liveSets = d.readU32();
    std::int64_t prevSet = -1;
    for (std::uint32_t i = 0; i < liveSets; ++i) {
        const std::uint32_t set = d.readU32();
        if (set >= nSets || std::int64_t(set) <= prevSet)
            sim::fatal("ckpt: tag-array set %u out of order or range "
                       "(%u sets)",
                       set, nSets);
        prevSet = set;
        std::uint32_t *b = block(set);
        std::uint8_t *r = replOf(b);
        r[nWays] = d.readU8();
        const std::uint32_t count = d.readU8();
        if (count == 0 || count > nWays)
            sim::fatal("ckpt: tag-array set %u holds %u of %u ways", set,
                       count, nWays);
        for (std::uint32_t k = 0; k < count; ++k) {
            const std::uint32_t w = d.readU8();
            const std::uint64_t tag = d.readU64();
            if (w >= nWays || !(freeWays[set] >> w & 1) ||
                tag != mem::lineAlign(tag) || setIndex(tag) != set ||
                mem::lineNumber(tag) >= LineRef::invalidTag) {
                sim::fatal("ckpt: bad tag-array slot (set %u, way %u, "
                           "tag %#llx)",
                           set, w, (unsigned long long)tag);
            }
            std::uint8_t *f = flagsOf(b) + w;
            b[w] = static_cast<std::uint32_t>(mem::lineNumber(tag));
            *f = d.readU8();
            r[w] = d.readU8();
            if (ownerOff != 0) {
                const std::uint64_t sharers = d.readU64();
                const int owner = std::countr_zero(sharers);
                if (std::popcount(sharers) != 1 ||
                    std::uint32_t(owner) >= numOwners) {
                    sim::fatal("ckpt: section '%s': directory entry "
                               "%#llx has sharer word %#llx (want one "
                               "owner core below %u)",
                               d.sectionName().c_str(),
                               (unsigned long long)tag,
                               (unsigned long long)sharers, numOwners);
                }
                f[ownerOff] = static_cast<std::uint8_t>(owner);
            }
            freeWays[set] &= ~(WayMask(1) << w);
        }
    }
}

} // namespace cache
