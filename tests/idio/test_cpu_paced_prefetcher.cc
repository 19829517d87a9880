/**
 * @file
 * CPU-paced prefetcher tests (the paper's suggested refinement).
 */

#include <gtest/gtest.h>

#include <functional>

#include "idio/controller.hh"
#include "idio/prefetcher.hh"
#include "sim/simulation.hh"

namespace
{

class CpuPacedTest : public ::testing::Test
{
  protected:
    CpuPacedTest()
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 1;
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        pf = std::make_unique<idio::MlcPrefetcher>(s, "pf", *hier, 0,
                                                   /*window=*/4);
        // The delegate is non-owning: bind a fixture-member callable
        // that lives as long as the hierarchy does.
        retireFn = [this](sim::CoreId) { pf->onRetire(); };
        hier->setPrefetchRetireObserver(
            cache::MemoryHierarchy::PrefetchRetireObserver::fromCallable(
                &retireFn));
    }

    void
    hintLines(int n, sim::Addr base = 0x10000)
    {
        for (int i = 0; i < n; ++i) {
            hier->pcieWrite(base + std::uint64_t(i) * 64);
            pf->hint(base + std::uint64_t(i) * 64);
        }
    }

    sim::Simulation s;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::MlcPrefetcher> pf;
    std::function<void(sim::CoreId)> retireFn;
};

TEST_F(CpuPacedTest, StallsAtWindow)
{
    hintLines(10);
    // One issue every idio::prefetchIssueNs (5 ns): at 5, 10, 15 ns.
    s.runFor(sim::nsToTicks(17.0));
    EXPECT_EQ(pf->fills.get(), 3u);
    s.runFor(sim::oneUs);

    // Only the 4-line window may be outstanding.
    EXPECT_EQ(pf->fills.get(), 4u);
    EXPECT_EQ(pf->outstandingLines(), 4u);
    EXPECT_GT(pf->stalls.get(), 0u);
    EXPECT_EQ(pf->queueDepth(), 6u);
}

TEST_F(CpuPacedTest, ConsumptionReleasesCredits)
{
    hintLines(10);
    s.runFor(sim::oneUs);
    ASSERT_EQ(pf->fills.get(), 4u);

    // The core consumes two prefetched lines; two more issue.
    hier->coreRead(0, 0x10000);
    hier->coreRead(0, 0x10040);
    s.runFor(sim::oneUs);

    EXPECT_EQ(pf->fills.get(), 6u);
    EXPECT_EQ(pf->outstandingLines(), 4u);
}

TEST_F(CpuPacedTest, SelfInvalidationReleasesCredits)
{
    hintLines(10);
    s.runFor(sim::oneUs);
    ASSERT_EQ(pf->outstandingLines(), 4u);

    // An unread prefetched buffer dropped by self-invalidation also
    // frees its credit (the line left the MLC).
    hier->coreInvalidate(0, 0x10000);
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->fills.get(), 5u);
}

TEST_F(CpuPacedTest, DemandHitRetiresOnlyOnce)
{
    hintLines(4);
    s.runFor(sim::oneUs);
    hier->coreRead(0, 0x10000);
    hier->coreRead(0, 0x10000); // second hit must not double-retire
    EXPECT_EQ(pf->outstandingLines(), 3u);
}

TEST_F(CpuPacedTest, FullPipelineDrains)
{
    hintLines(32);
    // Alternate consumption and time so the window keeps releasing.
    for (int i = 0; i < 32; ++i) {
        s.runFor(sim::oneUs);
        hier->coreRead(0, 0x10000 + std::uint64_t(i) * 64);
    }
    s.runFor(sim::oneUs);
    EXPECT_EQ(pf->fills.get(), 32u);
    EXPECT_EQ(pf->queueDepth(), 0u);
    EXPECT_EQ(pf->outstandingLines(), 0u);
}

TEST(CpuPacedController, EndToEndConfigWorks)
{
    sim::Simulation s;
    cache::HierarchyConfig hcfg;
    hcfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", hcfg);

    auto cfg = idio::IdioConfig{.policy = idio::Policy::Idio};
    cfg.prefetchWindowLines = 8;
    idio::IdioController ctrl(s, "idio", hier, cfg);
    ctrl.start();

    nic::TlpMeta m;
    m.destCore = 0;
    m.isHeader = true;
    for (int i = 0; i < 20; ++i)
        ctrl.dmaWrite(0x20000 + std::uint64_t(i) * 64, m);
    s.runFor(sim::oneUs);

    EXPECT_EQ(ctrl.prefetcher(0).outstandingLines(), 8u);
    EXPECT_LE(ctrl.prefetcher(0).fills.get(), 8u);
}

} // anonymous namespace
