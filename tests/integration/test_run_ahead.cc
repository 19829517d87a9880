/**
 * @file
 * The agent's run-ahead is exact: differential gates against a
 * reference whose agent runs one member step per dispatch.
 *
 * The reference forbids run-ahead on the event queue (a test seam,
 * not a configuration), so every DMA pump and prefetch issue step is
 * its own wheel dispatch, as before the agent existed. Both runs must
 * agree byte for byte on every output (reference_run.hh) and on the
 * number of logical steps, while the real path takes strictly fewer
 * dispatches. Every run is cut into uneven runFor() slices, so run
 * limits end stretches too. The cases: the perf bench's nine fig_sweep
 * configurations, a poll grid on the DMA pump grid (sleeping cores'
 * repeats tie with pump steps), a short scaled32 burst and the tenant
 * mix under IOCA.
 */

#include <gtest/gtest.h>

#include <string>

#include "reference_run.hh"
#include "tenant_scenario.hh"

namespace
{

using harness::ExperimentConfig;
using simtest::Artifacts;

void
noRunAhead(sim::EventQueue &eq)
{
    sim::EventQueueTestAccess::forbidRunAhead(eq);
}

/** Run @p cfg with and without run-ahead; everything but dispatches agrees. */
void
expectRunAheadExact(const ExperimentConfig &cfg, const std::string &what,
                    int slices = 6)
{
    const Artifacts ref =
        simtest::runSliced(cfg, noRunAhead, "ra_ref", slices);
    const Artifacts got = simtest::runSliced(cfg, {}, "ra_got", slices);
    simtest::expectSameOutputs(got, ref, what);
    EXPECT_EQ(got.steps, ref.steps) << what;
    EXPECT_EQ(ref.steps, ref.events) << what << ": the reference ran ahead";
    EXPECT_LT(got.events, ref.events) << what << ": nothing ran ahead";
}

TEST(RunAhead, FigSweepConfigsMatchTheReference)
{
    // fig_sweep's nine single bursts: {ddio, static, idio} x
    // {TouchDrop 100G, TouchDrop 25G, L2Fwd 100G} on the 2-core machine.
    struct NfCase
    {
        harness::NfKind kind;
        double gbps;
    };
    const NfCase nfCases[] = {{harness::NfKind::TouchDrop, 100.0},
                              {harness::NfKind::TouchDrop, 25.0},
                              {harness::NfKind::L2Fwd, 100.0}};
    for (const idio::Policy policy :
         {idio::Policy::Ddio, idio::Policy::Static, idio::Policy::Idio}) {
        for (const NfCase &nc : nfCases) {
            ExperimentConfig cfg;
            cfg.numNfs = 2;
            cfg.nfKind = nc.kind;
            cfg.rateGbps = nc.gbps;
            cfg.traffic = harness::TrafficKind::Bursty;
            cfg.burstPeriod = 10 * sim::oneSec; // one burst
            cfg.applyPolicy(policy);
            expectRunAheadExact(cfg, cfg.summary(), 10);
        }
    }
}

TEST(RunAhead, PollGridOnThePumpGrid)
{
    // Sleeping cores' repeats share ticks with the pump steps: a
    // stretch must give way exactly where a repeat would sort.
    ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.numNfs = 4;
    cfg.rxQueues = 4;
    cfg.totalFlows = 256;
    cfg.nic.ringSize = 128;
    cfg.rateGbps = 40.0;
    simtest::alignGrids(cfg);
    expectRunAheadExact(cfg, "aligned grids");
}

TEST(RunAhead, Scaled32BurstMatches)
{
    ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.burstPackets = 2048;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.nic.ringSize = 256;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec;
    cfg.applyPolicy(idio::Policy::Idio);
    expectRunAheadExact(cfg, "scaled32", 3);
}

TEST(RunAhead, TenantMixUnderIocaMatches)
{
    const auto &ioca = bench::tenantSchemes[2];
    ASSERT_STREQ(ioca.label, "ioca");
    ExperimentConfig cfg = bench::tenantMixConfig(ioca);
    cfg.nic.ringSize = 256;
    // Four slices of 5-44 us, then on to the 100 us sweep grid.
    expectRunAheadExact(cfg, "tenant_mix/ioca", 4);
}

} // anonymous namespace
