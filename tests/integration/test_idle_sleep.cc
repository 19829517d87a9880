/**
 * @file
 * Idle cores sleep exactly: differential gates against a reference
 * whose cores never sleep.
 *
 * The reference forbids sleeping on the event queue (a test seam, not
 * a configuration), so every empty poll is dispatched. The real path
 * lets idle PMD cores stop scheduling polls and credits them lazily.
 * Both run the same seeded configurations and must agree byte for
 * byte on the stats JSON, the Totals, the per-tenant totals, the
 * packet-lifecycle trace and an in-run timeline that samples a
 * credited counter. The configurations cover both I/O layouts, every
 * NF kind (L2Fwd's asynchronous TX completions included), every
 * replacement policy, poll grids that share ticks with the DMA pump
 * grid, tenant mode and a checkpoint taken mid-burst while cores
 * sleep. The invariant checker stays on: it sweeps at run-call
 * returns, where every sleeper has been woken and credited.
 */

#include <gtest/gtest.h>

#include <string>

#include "reference_run.hh"

#include "../sim/callback_event.hh"

namespace
{

using harness::ExperimentConfig;
using harness::TestSystem;
using simtest::Artifacts;
using simtest::alignGrids;
using simtest::statsJson;

void
neverSleep(sim::EventQueue &eq)
{
    sim::EventQueueTestAccess::forbidSleep(eq);
}

void
prepare(TestSystem &sys, bool sleeping)
{
    simtest::prepare(sys, sleeping ? simtest::Seam{} : neverSleep);
}

Artifacts
run(const ExperimentConfig &cfg, bool sleeping, const std::string &tag)
{
    return simtest::runSliced(cfg, sleeping ? simtest::Seam{} : neverSleep,
                              tag);
}

void
expectSame(const Artifacts &got, const Artifacts &ref,
           const std::string &what)
{
    simtest::expectSameOutputs(got, ref, what);
    EXPECT_LT(got.events, ref.events) << what << ": no core slept";
}

ExperimentConfig
randomConfig(std::uint64_t seed)
{
    sim::Rng rng(seed);
    ExperimentConfig cfg;
    cfg.seed = seed;
    const idio::Policy policies[] = {
        idio::Policy::Ddio, idio::Policy::InvalidateOnly,
        idio::Policy::PrefetchOnly, idio::Policy::Static,
        idio::Policy::Idio};
    cfg.applyPolicy(policies[rng.below(5)]);
    const harness::NfKind kinds[] = {
        harness::NfKind::TouchDrop, harness::NfKind::CopyTouchDrop,
        harness::NfKind::L2Fwd, harness::NfKind::L2FwdDropPayload};
    cfg.nfKind = kinds[rng.below(4)];
    const harness::TrafficKind traffic[] = {
        harness::TrafficKind::Bursty, harness::TrafficKind::Steady,
        harness::TrafficKind::Poisson};
    cfg.traffic = traffic[rng.below(3)];
    cfg.rateGbps = 5.0 + static_cast<double>(rng.below(96));
    cfg.burstPeriod = (20 + rng.below(60)) * sim::oneUs;
    cfg.frameBytes = 64 + static_cast<std::uint32_t>(rng.below(1451));
    cfg.nic.ringSize = 64u << rng.below(3);
    const cache::ReplKind repl[] = {cache::ReplKind::Lru,
                                    cache::ReplKind::Srrip,
                                    cache::ReplKind::Random};
    cfg.hier.replacement = repl[rng.below(3)];
    cfg.numNfs = 1 + static_cast<std::uint32_t>(rng.below(4));
    if (rng.chance(0.5)) {
        cfg.rxQueues = cfg.numNfs;
        cfg.totalFlows = 64;
    }
    if (rng.chance(0.5))
        alignGrids(cfg);
    return cfg;
}

TEST(IdleSleep, RandomConfigsMatchTheNeverSleepingReference)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const ExperimentConfig cfg = randomConfig(seed);
        const std::string what =
            "seed " + std::to_string(seed) + ": " + cfg.summary();
        const Artifacts ref = run(cfg, false, "ref");
        const Artifacts got = run(cfg, true, "got");
        expectSame(got, ref, what);
    }
}

TEST(IdleSleep, L2FwdTxCompletionsOnSharedGrids)
{
    // Asynchronous TX completions touch the core outside its steps
    // and defer cost into its next poll: both wake a sleeping core.
    // Under DDIO the completion's first access is the free-list
    // write; under IDIO it is the buffer's self-invalidate. A slow
    // 4 GB/s link makes completions land after the core fell asleep.
    for (const auto policy : {idio::Policy::Ddio, idio::Policy::Idio}) {
        for (const auto kind : {harness::NfKind::L2Fwd,
                                harness::NfKind::L2FwdDropPayload}) {
            ExperimentConfig cfg;
                    cfg.applyPolicy(policy);
            cfg.nfKind = kind;
            cfg.traffic = harness::TrafficKind::Steady;
            cfg.rateGbps = 10.0;
            alignGrids(cfg, 4.0);
            expectSame(run(cfg, true, "l2fwd_got"),
                       run(cfg, false, "l2fwd_ref"),
                       harness::nfKindName(kind));
        }
    }
}

TEST(IdleSleep, TenantModeMatches)
{
    ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.tenantPartition = harness::TenantPartition::Ioca;
    cfg.burstPeriod = 30 * sim::oneUs;
    cfg.nic.ringSize = 64;
    harness::TenantSpec rpc;
    rpc.name = "rpc";
    rpc.slo = tenant::SloClass::LatencyCritical;
    rpc.cores = 2;
    rpc.traffic = harness::TrafficKind::Steady;
    rpc.rateGbps = 10.0;
    harness::TenantSpec batch;
    batch.name = "batch";
    batch.cores = 1;
    batch.nfKind = harness::NfKind::L2Fwd;
    batch.stopAt = 60 * sim::oneUs; // departs mid-run
    harness::TenantSpec antag;
    antag.name = "antag";
    antag.antagonist = true;
    cfg.tenants = {rpc, batch, antag};
    expectSame(run(cfg, true, "tenant_got"), run(cfg, false, "tenant_ref"),
               "tenant mode");
}

TEST(IdleSleep, CheckpointWhileCoresSleep)
{
    // Checkpoint mid-burst: the run call returning wakes the sleeping
    // cores, which must leave exactly the state the reference holds,
    // and a restore must then continue identically.
    ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.numNfs = 4;
    cfg.rxQueues = 4;
    cfg.totalFlows = 256;
    cfg.nic.ringSize = 128;
    cfg.rateGbps = 40.0;
    alignGrids(cfg);
    constexpr sim::Tick ckptAt = 7 * sim::oneUs;
    constexpr sim::Tick tail = 60 * sim::oneUs;

    // Both runs carry the same observer event, so their event streams
    // stay alike.
    std::uint64_t sleptAtStop = 0;
    auto observe = [&sleptAtStop](simtest::Callbacks &cb,
                                  TestSystem &sys) {
        sim::EventQueue &eq = sys.simulation().eventq();
        cb.at(ckptAt - 1,
              [&sleptAtStop, &eq] { sleptAtStop = eq.sleeping(); });
    };

    TestSystem ref(cfg);
    prepare(ref, false);
    ref.start();
    simtest::Callbacks refCalls(ref.simulation().eventq());
    observe(refCalls, ref);
    ref.runFor(ckptAt);
    EXPECT_EQ(sleptAtStop, 0u);
    const harness::Totals refAtCkpt = ref.totals();
    const std::string refStatsAtCkpt = statsJson(ref);
    ref.runFor(tail);

    TestSystem cut(cfg);
    prepare(cut, true);
    cut.start();
    // Cores really sleep just before the checkpoint's run call returns.
    simtest::Callbacks cutCalls(cut.simulation().eventq());
    observe(cutCalls, cut);
    cut.runFor(ckptAt);
    EXPECT_GT(sleptAtStop, 0u);
    EXPECT_EQ(cut.totals(), refAtCkpt);
    EXPECT_LT(refAtCkpt.processedPackets, cfg.expectedBurstTotal())
        << "the checkpoint was meant to land mid-burst";
    const auto blob = cut.checkpoint();

    TestSystem warm(cfg);
    prepare(warm, true);
    warm.start();
    warm.restore(blob);
    warm.runFor(tail);
    cut.runFor(tail);

    EXPECT_EQ(cut.totals(), ref.totals());
    EXPECT_EQ(warm.totals(), ref.totals());
    EXPECT_EQ(statsJson(warm), statsJson(ref));
    EXPECT_EQ(statsJson(cut), statsJson(ref));
    EXPECT_NE(refStatsAtCkpt, statsJson(ref));
}

} // anonymous namespace
