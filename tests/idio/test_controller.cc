/**
 * @file
 * IDIO controller tests: Algorithm 1 data plane and control plane.
 */

#include <gtest/gtest.h>

#include "idio/controller.hh"
#include "sim/simulation.hh"

namespace
{

class ControllerTest : public ::testing::Test
{
  protected:
    void
    build(idio::Policy policy,
          std::function<void(idio::IdioConfig &)> tweak = {})
    {
        cache::HierarchyConfig hcfg;
        hcfg.numCores = 2;
        hier = std::make_unique<cache::MemoryHierarchy>(s, "sys", hcfg);
        auto cfg = idio::IdioConfig{.policy = policy};
        if (tweak)
            tweak(cfg);
        ctrl = std::make_unique<idio::IdioController>(s, "idio", *hier,
                                                      cfg);
        ctrl->start();
    }

    nic::TlpMeta
    meta(sim::CoreId core, bool header = false, bool burst = false,
         std::uint8_t appClass = 0)
    {
        nic::TlpMeta m;
        m.destCore = core;
        m.isHeader = header;
        m.isBurst = burst;
        m.appClass = appClass;
        return m;
    }

    sim::Simulation s;
    std::unique_ptr<cache::MemoryHierarchy> hier;
    std::unique_ptr<idio::IdioController> ctrl;
};

TEST_F(ControllerTest, DdioPolicyWritesToLlcOnly)
{
    build(idio::Policy::Ddio);
    ctrl->dmaWrite(0x1000, meta(0, true, true));
    s.runFor(sim::oneUs);

    EXPECT_TRUE(hier->llc().contains(0x1000));
    EXPECT_FALSE(hier->mlcOf(0).contains(0x1000));
    EXPECT_EQ(ctrl->headerHints.get(), 0u);
}

TEST_F(ControllerTest, HeadersAlwaysPrefetched)
{
    build(idio::Policy::Idio);
    // No burst: the FSM is in the LLC state, but headers are special.
    ctrl->dmaWrite(0x1000, meta(0, /*header=*/true));
    s.runFor(sim::oneUs);

    EXPECT_TRUE(hier->mlcOf(0).contains(0x1000));
    EXPECT_EQ(ctrl->headerHints.get(), 1u);
}

TEST_F(ControllerTest, HeaderOfClass1StillCached)
{
    build(idio::Policy::Idio);
    ctrl->dmaWrite(0x1000, meta(0, /*header=*/true, false, 1));
    s.runFor(sim::oneUs);
    // Alg. 1 checks isHeader before appClass: the header goes to the
    // cache hierarchy, not DRAM.
    EXPECT_TRUE(hier->mlcOf(0).contains(0x1000));
    EXPECT_EQ(hier->directDramWrites.get(), 0u);
}

TEST_F(ControllerTest, Class1PayloadBypassesToDram)
{
    build(idio::Policy::Idio);
    ctrl->dmaWrite(0x2000, meta(0, false, false, 1));
    s.runFor(sim::oneUs);

    EXPECT_FALSE(hier->llc().contains(0x2000));
    EXPECT_FALSE(hier->mlcOf(0).contains(0x2000));
    EXPECT_EQ(hier->dram().writeCount(), 1u);
    EXPECT_EQ(ctrl->directDramSteers.get(), 1u);
}

TEST_F(ControllerTest, PayloadPrefetchedOnlyInMlcState)
{
    build(idio::Policy::Idio);
    // Power-on state is LLC: payload stays put. (Stay inside the
    // first control interval: idle low-pressure intervals legally
    // walk the FSM back towards MLC.)
    ctrl->dmaWrite(0x3000, meta(0));
    s.runFor(sim::nsToTicks(100.0));
    EXPECT_TRUE(hier->llc().contains(0x3000));
    EXPECT_FALSE(hier->mlcOf(0).contains(0x3000));
    EXPECT_EQ(ctrl->status(0), idio::Steering::Llc);

    // A burst flips the FSM to MLC; subsequent payloads get hints.
    ctrl->dmaWrite(0x3040, meta(0, false, /*burst=*/true));
    s.runFor(sim::nsToTicks(100.0));
    EXPECT_EQ(ctrl->status(0), idio::Steering::Mlc);
    EXPECT_TRUE(hier->mlcOf(0).contains(0x3040));

    ctrl->dmaWrite(0x3080, meta(0));
    s.runFor(sim::nsToTicks(100.0));
    EXPECT_TRUE(hier->mlcOf(0).contains(0x3080));
    EXPECT_GE(ctrl->payloadHints.get(), 2u);
}

TEST_F(ControllerTest, StaticPolicyAlwaysMlc)
{
    build(idio::Policy::Static);
    EXPECT_EQ(ctrl->status(0), idio::Steering::Mlc);
    ctrl->dmaWrite(0x4000, meta(0));
    s.runFor(sim::oneUs);
    EXPECT_TRUE(hier->mlcOf(0).contains(0x4000));
}

TEST_F(ControllerTest, PerCoreStatusIndependent)
{
    build(idio::Policy::Idio);
    ctrl->dmaWrite(0x5000, meta(0, false, /*burst=*/true));
    EXPECT_EQ(ctrl->status(0), idio::Steering::Mlc);
    EXPECT_EQ(ctrl->status(1), idio::Steering::Llc);
}

TEST_F(ControllerTest, ControlPlaneDisablesUnderPressure)
{
    build(idio::Policy::Idio, [](idio::IdioConfig &c) {
        c.mlcThrMtps = 2.0; // 2 writebacks per us trips the FSM
    });

    ctrl->dmaWrite(0x6000, meta(0, false, /*burst=*/true));
    EXPECT_EQ(ctrl->status(0), idio::Steering::Mlc);

    // Generate heavy MLC writeback pressure on core 0 for several
    // control intervals: churn dirty lines through the MLC.
    sim::Addr a = 0x100000;
    for (int interval = 0; interval < 10; ++interval) {
        for (int i = 0; i < 8000; ++i) {
            hier->coreWrite(0, a);
            a += 64;
        }
        s.runFor(sim::oneUs);
    }
    EXPECT_EQ(ctrl->status(0), idio::Steering::Llc)
        << "sustained pressure must disable MLC prefetching";
    EXPECT_GT(ctrl->highPressureIntervals.get(), 2u);
}

TEST_F(ControllerTest, QuietPeriodReenables)
{
    build(idio::Policy::Idio, [](idio::IdioConfig &c) {
        c.mlcThrMtps = 2.0;
    });
    ctrl->dmaWrite(0x6000, meta(0, false, true));

    sim::Addr a = 0x100000;
    for (int interval = 0; interval < 10; ++interval) {
        for (int i = 0; i < 8000; ++i) {
            hier->coreWrite(0, a);
            a += 64;
        }
        s.runFor(sim::oneUs);
    }
    ASSERT_EQ(ctrl->status(0), idio::Steering::Llc);

    // Quiet interval: pressure low, the counter walks back.
    s.runFor(2 * sim::oneUs);
    EXPECT_EQ(ctrl->status(0), idio::Steering::Mlc);
}

TEST_F(ControllerTest, AverageTracksLongTermRate)
{
    build(idio::Policy::Idio, [](idio::IdioConfig &c) {
        c.avgWindow = 4; // tiny window for the test
    });

    // ~10 writebacks per interval for 8 intervals.
    for (int interval = 0; interval < 8; ++interval) {
        for (int i = 0; i < 10; ++i)
            hier->coreWrite(0, 0x200000 + (interval * 10 + i) * 64);
        // Push them out by churning (tiny MLC would be needed for
        // real evictions; emulate via pcieRead of dirty lines).
        for (int i = 0; i < 10; ++i)
            hier->pcieRead(0x200000 + (interval * 10 + i) * 64);
        s.runFor(sim::oneUs);
    }
    EXPECT_NEAR(static_cast<double>(ctrl->mlcWbAvg(0)), 10.0, 3.0);
}

TEST_F(ControllerTest, DmaReadDelegatesToHierarchy)
{
    build(idio::Policy::Ddio);
    ctrl->dmaWrite(0x7000, meta(0));
    const auto lat = ctrl->dmaRead(0x7000);
    EXPECT_GT(lat, 0u);
    EXPECT_EQ(hier->pcieReads.get(), 1u);
}

} // anonymous namespace
