/**
 * @file
 * Cache checkpoint encoding (format v5): tag arrays write only their
 * valid slots, so a checkpoint grows with the live cache state, not
 * with the configured capacity; and save -> restore -> save returns
 * the same bytes, for every replacement policy.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "ckpt/serializer.hh"
#include "hierarchy_fixture.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace
{

/** Every tag-array owner of @p h, in a fixed order. */
std::vector<sim::SimObject *>
cacheObjects(cache::MemoryHierarchy &h)
{
    std::vector<sim::SimObject *> objs;
    for (sim::CoreId c = 0; c < h.numCores(); ++c) {
        objs.push_back(&h.l1(c));
        objs.push_back(&h.mlcOf(c));
    }
    objs.push_back(&h.llc());
    objs.push_back(&h.directory());
    return objs;
}

/** The cache state of @p h as one blob, a section per array owner. */
std::vector<std::uint8_t>
saveCaches(cache::MemoryHierarchy &h)
{
    ckpt::Serializer s;
    for (sim::SimObject *obj : cacheObjects(h)) {
        s.beginSection(obj->name());
        obj->serialize(s);
        s.endSection();
    }
    return s.finish(1, 0);
}

void
restoreCaches(cache::MemoryHierarchy &h,
              const std::vector<std::uint8_t> &blob)
{
    ckpt::Deserializer d(blob);
    for (sim::SimObject *obj : cacheObjects(h)) {
        d.beginSection(obj->name());
        obj->unserialize(d);
        d.endSection();
    }
}

/** Valid lines over every array of @p h. */
std::uint64_t
validLines(cache::MemoryHierarchy &h)
{
    std::uint64_t n =
        h.llc().occupancy() + h.directory().trackedLines();
    for (sim::CoreId c = 0; c < h.numCores(); ++c)
        n += h.l1(c).tags().countValid() + h.mlcOf(c).tags().countValid();
    return n;
}

/** A seeded mix of core, DMA and prefetch traffic over @p lines. */
void
traffic(cache::MemoryHierarchy &h, std::uint64_t seed, int ops,
        std::uint64_t lines)
{
    sim::Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const sim::Addr a = rng.below(lines) * mem::lineSize;
        const auto c = static_cast<sim::CoreId>(rng.below(h.numCores()));
        switch (rng.below(5)) {
          case 0:
            h.coreRead(c, a);
            break;
          case 1:
            h.coreWrite(c, a);
            break;
          case 2:
            h.pcieWrite(a);
            break;
          case 3:
            h.mlcPrefetch(c, a);
            break;
          case 4:
            h.pcieRead(a);
            break;
        }
    }
}

cache::HierarchyConfig
bigConfig()
{
    // The tiny geometry's 2 cores with 16x the LLC, 4x the MLC and
    // 2x the L1, all with more sets and ways.
    cache::HierarchyConfig cfg = testutil::tinyConfig();
    cfg.l1 = {1024, 4, 2};
    cfg.mlc = {8192, 8, 12};
    cfg.llcPerCore = {65536, 16, 24};
    return cfg;
}

TEST(CacheCkpt, EmptyCachesSaveTheSameBytesAtAnyCapacity)
{
    sim::Simulation s1, s2;
    cache::MemoryHierarchy small(s1, "sys", testutil::tinyConfig());
    cache::MemoryHierarchy big(s2, "sys", bigConfig());
    ASSERT_GT(big.stateBytes(), 4 * small.stateBytes());
    EXPECT_EQ(saveCaches(small).size(), saveCaches(big).size());
}

TEST(CacheCkpt, BlobGrowsWithValidLinesNotCapacity)
{
    sim::Simulation s1, s2;
    cache::MemoryHierarchy small(s1, "sys", testutil::tinyConfig());
    cache::MemoryHierarchy big(s2, "sys", bigConfig());
    const std::size_t empty = saveCaches(small).size();

    // The same traffic in both geometries. A valid slot costs 11
    // bytes (way, tag, flags, replacement byte), 19 in the directory
    // (plus its sharers), and each set holding one adds a 6-byte
    // header: never the 40 bytes a slot took in every slot before.
    for (cache::MemoryHierarchy *h : {&small, &big}) {
        traffic(*h, 5, 4000, 512);
        const std::uint64_t valid = validLines(*h);
        const std::size_t grown = saveCaches(*h).size() - empty;
        EXPECT_GE(grown, 11 * valid);
        EXPECT_LE(grown, 25 * valid);
    }

    // More live lines, more bytes; more capacity alone, none.
    const std::size_t smallBytes = saveCaches(small).size();
    const std::size_t bigBytes = saveCaches(big).size();
    EXPECT_GT(validLines(big), validLines(small));
    EXPECT_GT(bigBytes, smallBytes);
    EXPECT_LT(bigBytes - smallBytes,
              25 * (validLines(big) - validLines(small)));
}

/** Parameterised by policy name, so each case is named after it. */
class CacheCkptPolicy : public ::testing::TestWithParam<const char *>
{
  protected:
    static cache::ReplKind
    kind(const std::string &name)
    {
        if (name == "srrip")
            return cache::ReplKind::Srrip;
        return name == "random" ? cache::ReplKind::Random
                                : cache::ReplKind::Lru;
    }
};

TEST_P(CacheCkptPolicy, SaveRestoreSaveIsByteIdentical)
{
    cache::HierarchyConfig cfg = testutil::tinyConfig();
    cfg.replacement = kind(GetParam());
    sim::Simulation s1, s2;
    cache::MemoryHierarchy orig(s1, "sys", cfg);
    cache::MemoryHierarchy copy(s2, "sys", cfg);

    // Enough traffic to wrap every LRU set clock several times.
    traffic(orig, 9, 30000, 1024);
    const auto blob = saveCaches(orig);
    restoreCaches(copy, blob);
    EXPECT_EQ(saveCaches(copy), blob);

    // The restored caches then evolve exactly like the originals.
    traffic(orig, 10, 20000, 1024);
    traffic(copy, 10, 20000, 1024);
    EXPECT_EQ(saveCaches(copy), saveCaches(orig));
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheCkptPolicy,
                         ::testing::Values("lru", "srrip", "random"));

TEST(CacheCkptDeath, GeometryMismatchIsFatal)
{
    sim::Simulation s1, s2;
    cache::MemoryHierarchy small(s1, "sys", testutil::tinyConfig());
    cache::MemoryHierarchy big(s2, "sys", bigConfig());
    const auto blob = saveCaches(small);
    EXPECT_EXIT(restoreCaches(big, blob), ::testing::ExitedWithCode(1),
                "geometry mismatch");
}

/**
 * A checkpoint of @p h 's directory, which tracks exactly one line,
 * with that entry's sharer word replaced by @p sharers. The layout is
 * ckpt/serializer.hh's: a one-section blob ends with the section's
 * payload, preceded by its length and checksum, and the payload ends
 * with the last entry's sharer word.
 */
std::vector<std::uint8_t>
directoryWithSharers(cache::MemoryHierarchy &h, std::uint64_t sharers)
{
    const std::string &name = h.directory().name();
    ckpt::Serializer s;
    s.beginSection(name);
    h.directory().serialize(s);
    s.endSection();
    const std::vector<std::uint8_t> blob = s.finish(1, 0);

    // Header (magic, version, seed, tick, count), then the section's
    // name length, name and version before its payload length.
    const std::size_t lenAt = 8 + 4 + 8 + 8 + 4 + 4 + name.size() + 4;
    std::uint64_t len = 0;
    std::memcpy(&len, blob.data() + lenAt, sizeof(len));
    std::vector<std::uint8_t> payload(blob.end() - std::ptrdiff_t(len),
                                      blob.end());
    std::memcpy(payload.data() + payload.size() - sizeof(sharers),
                &sharers, sizeof(sharers));

    ckpt::Serializer t;
    t.beginSection(name);
    t.writeBytes(payload.data(), payload.size());
    t.endSection();
    return t.finish(1, 0);
}

void
restoreDirectory(cache::MemoryHierarchy &h,
                 const std::vector<std::uint8_t> &blob)
{
    ckpt::Deserializer d(blob);
    d.beginSection(h.directory().name());
    h.directory().unserialize(d);
    d.endSection();
}

TEST(CacheCkpt, DirectoryOwnerIsSavedAsOneSharerBit)
{
    sim::Simulation s1, s2;
    cache::MemoryHierarchy orig(s1, "sys", testutil::tinyConfig());
    cache::MemoryHierarchy copy(s2, "sys", testutil::tinyConfig());
    orig.coreRead(1, 0x40);
    ASSERT_EQ(orig.directory().trackedLines(), 1u);

    // The unpatched word round-trips; core 0's bit restores core 0.
    restoreDirectory(copy, directoryWithSharers(orig, 0b10));
    EXPECT_EQ(copy.directory().ownerOf(0x40), 1);
    restoreDirectory(copy, directoryWithSharers(orig, 0b01));
    EXPECT_EQ(copy.directory().ownerOf(0x40), 0);
}

TEST(CacheCkptDeath, DirectoryEntryWithoutOneValidOwnerIsFatal)
{
    sim::Simulation s1, s2;
    cache::MemoryHierarchy orig(s1, "sys", testutil::tinyConfig());
    cache::MemoryHierarchy copy(s2, "sys", testutil::tinyConfig());
    orig.coreRead(1, 0x40);

    // No owner, two owners, and owners past the 2-core machine.
    for (const std::uint64_t sharers :
         {std::uint64_t(0), std::uint64_t(0b11), std::uint64_t(0b100),
          std::uint64_t(1) << 63, ~std::uint64_t(0)}) {
        const auto blob = directoryWithSharers(orig, sharers);
        EXPECT_EXIT(restoreDirectory(copy, blob),
                    ::testing::ExitedWithCode(1),
                    "section 'sys\\.dir'.*sharer word")
            << std::hex << sharers;
    }
}

} // anonymous namespace
