/**
 * @file
 * Queued MLC prefetcher tests (paper Sec. V-C).
 */

#include <gtest/gtest.h>

#include "idio/prefetcher.hh"
#include "sim/simulation.hh"

namespace
{

class PrefetcherTest : public ::testing::Test
{
  protected:
    PrefetcherTest()
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 1;
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        pf = std::make_unique<idio::MlcPrefetcher>(s, "pf", *hier, 0);
    }

    sim::Simulation s;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::MlcPrefetcher> pf;
};

TEST_F(PrefetcherTest, HintMovesLlcLineIntoMlc)
{
    hier->pcieWrite(0x1000);
    pf->hint(0x1000);
    s.runFor(sim::oneUs);

    EXPECT_TRUE(hier->mlcOf(0).contains(0x1000));
    EXPECT_EQ(pf->issued.get(), 1u);
    EXPECT_EQ(pf->fills.get(), 1u);
}

TEST_F(PrefetcherTest, QueueDropsWhenFull)
{
    for (int i = 0; i < 64; ++i)
        pf->hint(0x100000 + i * 64);
    EXPECT_EQ(pf->hintsReceived.get(), 64u);
    ASSERT_EQ(idio::prefetchQueueDepth, 32u);
    EXPECT_EQ(pf->hintsDropped.get(), 64u - 32u - 0u)
        << "only the 32-deep queue's worth may be accepted";
}

TEST_F(PrefetcherTest, IssuePacing)
{
    for (int i = 0; i < 10; ++i) {
        hier->pcieWrite(0x2000 + i * 64);
        pf->hint(0x2000 + i * 64);
    }
    // 5 ns per issue: after 27 ns, 5 issued.
    ASSERT_EQ(idio::prefetchIssueNs, 5.0);
    s.runFor(sim::nsToTicks(27.0));
    EXPECT_EQ(pf->issued.get(), 5u);
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->issued.get(), 10u);
    EXPECT_EQ(pf->queueDepth(), 0u);
}

TEST_F(PrefetcherTest, RedundantHintIssuesButDoesNotFill)
{
    hier->coreRead(0, 0x3000); // already in MLC
    pf->hint(0x3000);
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->issued.get(), 1u);
    EXPECT_EQ(pf->fills.get(), 0u);
}

TEST_F(PrefetcherTest, DrainsThenAcceptsMore)
{
    for (int i = 0; i < 32; ++i)
        pf->hint(0x4000 + i * 64);
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->queueDepth(), 0u);
    pf->hint(0x9000);
    EXPECT_EQ(pf->hintsDropped.get(), 0u);
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->issued.get(), 33u);
}

} // anonymous namespace
