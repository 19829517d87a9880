/**
 * @file
 * Policy-comparison integration tests: the paper's directional claims
 * must hold on the simulator (exact magnitudes live in EXPERIMENTS.md;
 * these tests assert the *shape*).
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace
{

harness::Totals
runPolicy(idio::Policy policy, double gbps,
          harness::TrafficKind traffic = harness::TrafficKind::Bursty,
          bool antagonist = false)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.traffic = traffic;
    cfg.rateGbps = gbps;
    cfg.withAntagonist = antagonist;
    cfg.applyPolicy(policy);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(30 * sim::oneMs);
    return sys.totals();
}

TEST(Policies, InvalidationEliminatesMlcWritebacks)
{
    const auto ddio = runPolicy(idio::Policy::Ddio, 25.0);
    const auto inval = runPolicy(idio::Policy::InvalidateOnly, 25.0);
    EXPECT_LT(inval.mlcWritebacks, ddio.mlcWritebacks / 10)
        << "paper Sec. VII: self-invalidation removes most MLC WBs";
}

TEST(Policies, IdioReducesMlcWritebacksAtAllRates)
{
    for (double gbps : {100.0, 25.0, 10.0}) {
        const auto ddio = runPolicy(idio::Policy::Ddio, gbps);
        const auto idioT = runPolicy(idio::Policy::Idio, gbps);
        EXPECT_LT(idioT.mlcWritebacks, ddio.mlcWritebacks)
            << "at " << gbps << " Gbps";
        // Paper Fig. 10: at least ~60% reduction at every rate.
        EXPECT_LT(static_cast<double>(idioT.mlcWritebacks),
                  0.6 * static_cast<double>(ddio.mlcWritebacks))
            << "at " << gbps << " Gbps";
    }
}

TEST(Policies, IdioNearlyEliminatesDramWritesAtMediumRate)
{
    const auto ddio = runPolicy(idio::Policy::Ddio, 25.0);
    const auto idioT = runPolicy(idio::Policy::Idio, 25.0);
    EXPECT_GT(ddio.dramWrites, 10000u);
    EXPECT_LT(idioT.dramWrites, ddio.dramWrites / 20)
        << "paper: IDIO almost eliminates DRAM write bandwidth";
}

TEST(Policies, IdioMatchesStaticAtMediumRate)
{
    // Paper Sec. VII: "there is no difference between Static and
    // IDIO [at 25 Gbps]".
    const auto st = runPolicy(idio::Policy::Static, 25.0);
    const auto dy = runPolicy(idio::Policy::Idio, 25.0);
    EXPECT_EQ(st.mlcWritebacks, dy.mlcWritebacks);
    EXPECT_EQ(st.llcWritebacks, dy.llcWritebacks);
}

TEST(Policies, FsmRegulatesAtHighRate)
{
    // At 100 Gbps the Static policy overfills the MLC; dynamic IDIO
    // disables prefetching under pressure and produces fewer MLC WBs.
    const auto st = runPolicy(idio::Policy::Static, 100.0);
    const auto dy = runPolicy(idio::Policy::Idio, 100.0);
    EXPECT_LT(dy.mlcWritebacks, st.mlcWritebacks);
}

TEST(Policies, PrefetchAloneCutsLlcWritebacks)
{
    const auto ddio = runPolicy(idio::Policy::Ddio, 100.0);
    const auto pf = runPolicy(idio::Policy::PrefetchOnly, 100.0);
    EXPECT_LT(pf.llcWritebacks, ddio.llcWritebacks)
        << "prefetching drains the DDIO ways during the DMA phase";
}

TEST(Policies, AllPoliciesProcessEveryPacket)
{
    for (auto p : {idio::Policy::Ddio, idio::Policy::InvalidateOnly,
                   idio::Policy::PrefetchOnly, idio::Policy::Static,
                   idio::Policy::Idio}) {
        const auto t = runPolicy(p, 25.0);
        EXPECT_EQ(t.rxDrops, 0u) << idio::policyName(p);
        // The cutoff can land on a burst start; allow the handful of
        // packets still in flight at t=30 ms.
        EXPECT_GE(t.processedPackets + 64, t.rxPackets)
            << idio::policyName(p);
        EXPECT_GE(t.processedPackets, 3u * 2 * 1024)
            << idio::policyName(p);
    }
}

TEST(Policies, SteadyTrafficInvalidationStillHelps)
{
    // Paper Fig. 13: at steady 10 Gbps/core, DDIO shows the same MLC
    // WB rate as bursty traffic; IDIO removes most of it.
    const auto ddio = runPolicy(idio::Policy::Ddio, 10.0,
                                harness::TrafficKind::Steady);
    const auto idioT = runPolicy(idio::Policy::Idio, 10.0,
                                 harness::TrafficKind::Steady);
    EXPECT_GT(ddio.mlcWritebacks, 50000u);
    EXPECT_LT(idioT.mlcWritebacks, ddio.mlcWritebacks / 5);
}

TEST(Policies, IdioImprovesTailLatencyAtMediumRate)
{
    auto p99 = [](idio::Policy p) {
        harness::ExperimentConfig cfg;
        cfg.numNfs = 2;
        cfg.traffic = harness::TrafficKind::Bursty;
        cfg.rateGbps = 25.0;
        cfg.applyPolicy(p);
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(30 * sim::oneMs);
        return sys.nf(0).latency.p99();
    };

    EXPECT_LT(p99(idio::Policy::Idio), p99(idio::Policy::Ddio))
        << "paper Fig. 12: 30.5% p99 reduction at 25 Gbps";
}

TEST(Policies, CoRunIsolationImprovesAntagonist)
{
    // Paper Fig. 10 discussion: co-running with IDIO improves the
    // LLCAntagonist's CPI.
    auto antagCpi = [](idio::Policy p) {
        harness::ExperimentConfig cfg;
        cfg.numNfs = 2;
        cfg.traffic = harness::TrafficKind::Bursty;
        cfg.rateGbps = 25.0;
        cfg.withAntagonist = true;
        cfg.applyPolicy(p);
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(30 * sim::oneMs);
        return sys.antagonists().front()->ticksPerAccess();
    };

    EXPECT_LT(antagCpi(idio::Policy::Idio),
              antagCpi(idio::Policy::Ddio));
}

} // anonymous namespace
