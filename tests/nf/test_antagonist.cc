/**
 * @file
 * LLCAntagonist tests.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "nf/llc_antagonist.hh"
#include "sim/simulation.hh"

namespace
{

class AntagonistTest : public ::testing::Test
{
  protected:
    AntagonistTest()
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 1;
        hcfg.mlc.sizeBytes = 256 * 1024; // the paper's shrunken MLC
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        core = std::make_unique<cpu::Core>(s, "core0", 0, *hier);
    }

    sim::Simulation s;
    mem::PhysAllocator alloc;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<cpu::Core> core;
};

TEST_F(AntagonistTest, WarmUpTouchesWholeBuffer)
{
    nf::LlcAntagonist antag(s, "antag", *core, alloc, 1 << 20);
    antag.warmUp();
    EXPECT_EQ(core->reads.get(), (1u << 20) / 64);
}

TEST_F(AntagonistTest, RunsAndCountsAccesses)
{
    nf::LlcAntagonist antag(s, "antag", *core, alloc, 4 << 20);
    antag.warmUp();
    antag.launch();
    s.runFor(sim::oneMs);

    EXPECT_GT(antag.accesses.get(), 1000u);
    EXPECT_GT(antag.ticksPerAccess(), 0.0);
}

TEST_F(AntagonistTest, AccessesStayInBuffer)
{
    // A small working set fits the hierarchy: after warm-up, no
    // access should reach DRAM.
    nf::LlcAntagonist antag(s, "antag", *core, alloc,
                            128 * 1024); // fits the 256 KB MLC
    antag.warmUp();
    const auto dramBefore = hier->dram().readCount();
    antag.launch();
    s.runFor(sim::oneMs);
    EXPECT_EQ(hier->dram().readCount(), dramBefore);
}

TEST_F(AntagonistTest, LargeWorkingSetThrashesLlc)
{
    nf::LlcAntagonist antag(s, "antag", *core, alloc,
                            8 << 20); // 8 MB >> 1.5 MB LLC
    antag.warmUp();
    antag.launch();
    s.runFor(sim::oneMs);
    EXPECT_GT(hier->dram().readCount(), 1000u)
        << "an oversized working set must miss to DRAM";
}

TEST_F(AntagonistTest, CpiDegradesWithWorkingSetSize)
{
    const std::uint64_t smallBytes = 128 * 1024;
    const std::uint64_t largeBytes = 8 << 20;

    nf::LlcAntagonist a(s, "a", *core, alloc, smallBytes);
    a.warmUp();
    a.launch();
    s.runFor(sim::oneMs);
    const double cpiSmall = a.ticksPerAccess();
    core->halt();

    nf::LlcAntagonist b(s, "b", *core, alloc, largeBytes);
    b.warmUp();
    b.launch();
    s.runFor(sim::oneMs);
    const double cpiLarge = b.ticksPerAccess();

    EXPECT_GT(cpiLarge, cpiSmall * 2)
        << "DRAM-bound access must be much slower";
}

} // anonymous namespace
