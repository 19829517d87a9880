/**
 * @file
 * Lockstep oracle test: cache::MemoryHierarchy against the naive
 * ReferenceHierarchy of reference_hierarchy.hh.
 *
 * Seeded soups of core reads/writes, PCIe writes and reads, M1
 * self-invalidates (single lines and ranges), M2 prefetches, M3
 * DRAM-direct writes, skipped L1 hits, CAT mask changes and DDIO
 * re-partitions run on both models. After every operation the test
 * asserts the same result (hit level, fill or fault), the same value
 * of every counter the hierarchy registers, the same observer calls,
 * and the same contents of every array: each resident line's way,
 * dirty/io/prefetched/ddioAlloc flags and directory sharers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>
#include <string>

#include "cache/hierarchy.hh"
#include "reference_hierarchy.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "stats/stat.hh"

namespace
{

struct OracleCase
{
    const char *name;
    std::uint32_t cores;
    std::uint32_t l1Assoc;
    std::uint32_t mlcAssoc;
    std::uint32_t llcAssoc;
    std::uint32_t ddioWays;
    double dirCoverage;
    std::uint32_t dirAssoc;
};

// Without this gtest prints the case as raw bytes, name pointer
// included, so the test names differed from one process to the next.
void
PrintTo(const OracleCase &k, std::ostream *os)
{
    *os << k.name;
}

cache::HierarchyConfig
configFor(const OracleCase &k)
{
    cache::HierarchyConfig cfg;
    cfg.numCores = k.cores;
    cfg.l1 = {256ull * k.l1Assoc, k.l1Assoc, 2};
    cfg.mlc = {1024ull * k.mlcAssoc, k.mlcAssoc, 12};
    cfg.llcPerCore = {1024ull * k.llcAssoc, k.llcAssoc, 24};
    cfg.ddioWays = k.ddioWays;
    cfg.directoryCoverage = k.dirCoverage;
    cfg.directoryAssoc = k.dirAssoc;
    if (k.cores > 1) // one core starts CAT-confined to the top ways
        cfg.llcAllocMask = {0, ~cache::lowWays(k.llcAssoc / 2)};
    return cfg;
}

/** Every valid line of @p tags as the reference level stores it. */
std::unordered_map<sim::Addr, cachetest::RefLine>
contentsOf(const cache::TagArray &tags)
{
    std::unordered_map<sim::Addr, cachetest::RefLine> out;
    for (std::uint32_t s = 0; s < tags.numSets(); ++s) {
        for (std::uint32_t w = 0; w < tags.assoc(); ++w) {
            const cache::CacheLine l = tags.lineAt(s, w);
            if (!l.valid)
                continue;
            cachetest::RefLine r;
            r.way = w;
            r.dirty = l.dirty;
            r.io = l.io;
            r.prefetched = l.prefetched;
            r.ddioAlloc = l.ddioAlloc;
            r.sharers = l.sharers;
            out.emplace(l.addr, r);
        }
    }
    return out;
}

std::string
describe(sim::Addr addr, const cachetest::RefLine &l)
{
    std::ostringstream os;
    os << "line 0x" << std::hex << addr << std::dec << " way " << l.way
       << " d" << l.dirty << " io" << l.io << " pf" << l.prefetched
       << " ddio" << l.ddioAlloc << " sharers 0x" << std::hex
       << l.sharers;
    return os.str();
}

bool
operator==(const cachetest::RefLine &a, const cachetest::RefLine &b)
{
    return a.way == b.way && a.dirty == b.dirty && a.io == b.io &&
           a.prefetched == b.prefetched && a.ddioAlloc == b.ddioAlloc &&
           a.sharers == b.sharers;
}

::testing::AssertionResult
sameContents(const char *what, const cache::TagArray &tags,
             cachetest::RefLevel &ref)
{
    const auto real = contentsOf(tags);
    for (const auto &[addr, r] : ref.contents()) {
        auto it = real.find(addr);
        if (it == real.end()) {
            return ::testing::AssertionFailure()
                   << what << ": missing " << describe(addr, r);
        }
        if (!(it->second == r)) {
            return ::testing::AssertionFailure()
                   << what << ": " << describe(addr, it->second)
                   << ", reference " << describe(addr, r);
        }
    }
    if (real.size() != ref.contents().size()) {
        for (const auto &[addr, r] : real) {
            if (!ref.contents().count(addr)) {
                return ::testing::AssertionFailure()
                       << what << ": " << describe(addr, r)
                       << " absent from the reference";
            }
        }
    }
    return ::testing::AssertionSuccess();
}

class CacheOracle : public ::testing::TestWithParam<OracleCase>
{
  protected:
    CacheOracle()
        : cfg(configFor(GetParam())), hier(sim_, "sys", cfg), ref(cfg)
    {
        hier.setPrefetchRetireObserver(
            cache::MemoryHierarchy::PrefetchRetireObserver::fromCallable(
                &onRetire));
        hier.setMlcWbObserver(
            cache::MemoryHierarchy::MlcWbObserver::fromCallable(&onWb));
    }

    /** Names the operation a failure follows. */
    std::string
    where(int op, std::uint64_t kind) const
    {
        std::ostringstream os;
        os << " after op " << op << " (kind " << kind << ", core "
           << lastCore << ", addr 0x" << std::hex << lastAddr << ")";
        return os.str();
    }

    /** Every counter, observer count and array agrees. */
    void
    expectSameState(int op, std::uint64_t kind)
    {
        std::size_t known = 0;
        sim_.statsRegistry().forEach(
            [&](const stats::StatGroup &g, const stats::Stat &st) {
                const std::string name = g.name() + "." + st.name();
                if (name == "sys.dram.queuedTicks") // timing, not state
                    return;
                const auto it = ref.counters.find(name);
                const std::uint64_t want =
                    it == ref.counters.end() ? 0 : it->second;
                known += it != ref.counters.end();
                ASSERT_EQ(static_cast<std::uint64_t>(st.value()), want)
                    << name << where(op, kind);
            });
        ASSERT_EQ(known, ref.counters.size())
            << "the reference counts a stat the hierarchy lacks";
        ASSERT_EQ(retires, ref.retires) << "retires" << where(op, kind);
        ASSERT_EQ(wbs, ref.wbNotices) << "wb notices" << where(op, kind);

        ASSERT_TRUE(
            sameContents("dir", hier.directory().tags(), ref.dir()))
            << where(op, kind);
        ASSERT_TRUE(sameContents("llc", hier.llc().tags(), ref.llc()))
            << where(op, kind);
        for (sim::CoreId c = 0; c < cfg.numCores; ++c) {
            ASSERT_TRUE(
                sameContents("mlc", hier.mlcOf(c).tags(), ref.mlc(c)))
                << "core " << c << where(op, kind);
            ASSERT_TRUE(sameContents("l1", hier.l1(c).tags(), ref.l1(c)))
                << "core " << c << where(op, kind);
        }
    }

    /** Run @p ops random operations in lockstep. */
    void
    soup(std::uint64_t seed, int ops)
    {
        sim::Rng rng(seed);
        const std::uint32_t llcWays = cfg.llcPerCore.assoc;
        // Twice the LLC's lines: every level sees conflict misses.
        const std::uint64_t space =
            2 * cfg.llcSizeBytes() / mem::lineSize;
        for (int op = 0; op < ops; ++op) {
            const sim::Addr a = rng.below(space) * mem::lineSize;
            const auto c =
                static_cast<sim::CoreId>(rng.below(cfg.numCores));
            const auto kind = rng.below(20);
            lastCore = c;
            lastAddr = a;
            switch (kind) {
              case 0: case 1: case 2: case 3: case 4:
                ASSERT_EQ(hier.coreRead(c, a).level,
                          ref.access(c, a, false))
                    << "read op " << op;
                break;
              case 5: case 6: case 7:
                ASSERT_EQ(hier.coreWrite(c, a).level,
                          ref.access(c, a, true))
                    << "write op " << op;
                break;
              case 8: case 9: case 10:
                hier.pcieWrite(a);
                ref.pcieWrite(a, false);
                break;
              case 11:
                hier.pcieWriteDirectDram(a);
                ref.pcieWrite(a, true);
                break;
              case 12: {
                const sim::Tick lat = hier.pcieRead(a);
                const mem::HitLevel want = ref.pcieRead(a);
                ASSERT_EQ(lat == cfg.cyclesToTicks(
                                     cfg.llcPerCore.latencyCycles),
                          want == mem::HitLevel::LLC)
                    << "pcie read op " << op;
                break;
              }
              case 13: case 14: case 15:
                ASSERT_EQ(hier.mlcPrefetch(c, a), ref.prefetch(c, a))
                    << "prefetch op " << op;
                break;
              case 16:
                ASSERT_TRUE(hier.coreInvalidate(c, a));
                ref.selfInvalidate(c, a);
                break;
              case 17: {
                const std::uint64_t lines = 1 + rng.below(4);
                std::uint64_t dropped = 0;
                for (std::uint64_t i = 0; i < lines; ++i) {
                    const sim::Addr l = a + i * mem::lineSize;
                    dropped += ref.mlc(c).find(l) != nullptr;
                    ref.selfInvalidate(c, l);
                }
                ASSERT_EQ(hier.invalidateRange(c, a + 5,
                                               lines * mem::lineSize - 5),
                          dropped)
                    << "range op " << op;
                break;
              }
              case 18: {
                // A sleeping core's skipped hits on an L1-resident line.
                const auto &l1 = ref.l1(c).contents();
                if (l1.empty())
                    break;
                auto it = l1.begin();
                std::advance(it, rng.below(l1.size()));
                const sim::Addr line = it->first;
                const std::uint64_t n = 1 + rng.below(300);
                hier.repeatL1Hit(c, line, n);
                ref.repeatL1Hit(c, line, n);
                break;
              }
              case 19:
                if (rng.below(2)) {
                    const cache::WayMask m =
                        1 + rng.below(cache::lowWays(llcWays));
                    hier.setCoreAllocMask(c, m);
                    ref.setAllocMask(c, m);
                } else {
                    const auto w = static_cast<std::uint32_t>(
                        1 + rng.below(llcWays));
                    hier.llc().setDdioWays(w);
                    ref.setDdioWays(w);
                }
                break;
            }
            expectSameState(op, kind);
            if (HasFatalFailure())
                return;
        }
    }

    sim::Simulation sim_;
    cache::HierarchyConfig cfg;
    cache::MemoryHierarchy hier;
    cachetest::ReferenceHierarchy ref;
    std::uint64_t retires = 0;
    std::uint64_t wbs = 0;
    sim::CoreId lastCore = 0;
    sim::Addr lastAddr = 0;
    std::function<void(sim::CoreId)> onRetire = [this](sim::CoreId) {
        ++retires;
    };
    std::function<void(sim::CoreId)> onWb = [this](sim::CoreId) {
        ++wbs;
    };
};

TEST_P(CacheOracle, LockstepSoup)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        soup(seed * 7919 + GetParam().cores, 3000);
        if (HasFatalFailure())
            return;
    }
}

TEST_P(CacheOracle, BackInvalidationIsExercised)
{
    soup(11, 3000);
    if (GetParam().dirCoverage < 1.0) {
        EXPECT_GT(hier.directory().capacityEvictions.get(), 0u);
        std::uint64_t backInvals = 0;
        for (sim::CoreId c = 0; c < cfg.numCores; ++c)
            backInvals += hier.mlcOf(c).backInvals.get();
        EXPECT_GT(backInvals, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(
        OracleCase{"c1_l2_m4_l4_d2_cov150", 1, 2, 4, 4, 2, 1.5, 4},
        OracleCase{"c2_l2_m4_l4_d2_cov100", 2, 2, 4, 4, 2, 1.0, 4},
        OracleCase{"c2_l1_m8_l12_d2_cov150", 2, 1, 8, 12, 2, 1.5, 16},
        OracleCase{"c3_l2_m2_l16_d4_cov50", 3, 2, 2, 16, 4, 0.5, 4},
        OracleCase{"c4_l4_m4_l8_d3_cov25", 4, 4, 4, 8, 3, 0.25, 2},
        OracleCase{"c2_l2_m4_l8_d8_cov25_dir3", 2, 2, 4, 8, 8, 0.25, 3},
        OracleCase{"c2_l2_m4_l4_d1_cov50", 2, 2, 4, 4, 1, 0.5, 4}),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return std::string(info.param.name);
    });

} // anonymous namespace
