/**
 * @file
 * Multi-tenant subsystem gates (src/tenant + harness tenant mode).
 *
 * Covers the CAT partition contract end to end: mask layout math,
 * fill confinement (a tenant's victims can never land outside its
 * partition), deterministic mid-run reconfiguration, the IOCA-style
 * controller's pressure-driven reallocation, and bit-identical
 * checkpoint/restore of the TenantManager + IocaController state.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "../cache/hierarchy_fixture.hh"
#include "harness/run_report.hh"
#include "harness/system.hh"
#include "stats/json.hh"
#include "tenant/ioca.hh"
#include "tenant/manager.hh"
#include "trace/chrome_export.hh"

namespace harness
{

void
PrintTo(NfKind kind, std::ostream *os)
{
    *os << nfKindName(kind);
}

} // namespace harness

namespace
{

/** Two single-core tenants on the tiny 4-way (2 DDIO) hierarchy. */
std::vector<tenant::Tenant>
twoTenants()
{
    tenant::Tenant a;
    a.name = "a";
    a.slo = tenant::SloClass::LatencyCritical;
    a.cores = {0};
    tenant::Tenant b;
    b.name = "b";
    b.slo = tenant::SloClass::BestEffort;
    b.cores = {1};
    return {a, b};
}

TEST(TenantManager, EqualSplitAndContiguousMasks)
{
    sim::Simulation sim_;
    cache::MemoryHierarchy hier(sim_, "sys", testutil::tinyConfig());
    tenant::TenantManager mgr(sim_, "tenants", hier, twoTenants(),
                              /*partitioned=*/true);

    EXPECT_EQ(mgr.ioWays(), 2u);
    EXPECT_EQ(mgr.partitionWays(), 2u);
    EXPECT_EQ(mgr.tenant(0).ways, 1u);
    EXPECT_EQ(mgr.tenant(1).ways, 1u);
    EXPECT_EQ(mgr.tenant(0).mask, cache::WayMask(0b0100));
    EXPECT_EQ(mgr.tenant(1).mask, cache::WayMask(0b1000));
    EXPECT_EQ(hier.coreAllocMask(0), cache::WayMask(0b0100));
    EXPECT_EQ(hier.coreAllocMask(1), cache::WayMask(0b1000));
    EXPECT_EQ(mgr.tenantOfCore(0), 0u);
    EXPECT_EQ(mgr.tenantOfCore(1), 1u);
}

TEST(TenantManager, UnpartitionedKeepsFullMasks)
{
    sim::Simulation sim_;
    cache::MemoryHierarchy hier(sim_, "sys", testutil::tinyConfig());
    tenant::TenantManager mgr(sim_, "tenants", hier, twoTenants(),
                              /*partitioned=*/false);

    EXPECT_FALSE(mgr.partitioned());
    EXPECT_EQ(mgr.tenant(0).ways, 0u);
    EXPECT_EQ(hier.coreAllocMask(0), ~cache::WayMask(0));
    EXPECT_EQ(hier.coreAllocMask(1), ~cache::WayMask(0));
}

TEST(TenantManager, FillsNeverEvictOutsideMask)
{
    sim::Simulation sim_;
    cache::MemoryHierarchy hier(sim_, "sys", testutil::tinyConfig());
    tenant::TenantManager mgr(sim_, "tenants", hier, twoTenants(),
                              /*partitioned=*/true);

    // Dirty a line on tenant a's core and churn far more lines than
    // the MLC holds: every LLC victim insert must stay in way 2.
    hier.coreWrite(0, 0x1000);
    const auto lines = hier.config().mlcSize(0) / mem::lineSize;
    for (std::uint64_t i = 0; i < 2 * lines; ++i)
        hier.coreRead(0, 0x40000000 + i * mem::lineSize);

    const auto outside = hier.llc().tags().countValid(
        [](const cache::CacheLine &, std::uint32_t way) {
            return way != 2;
        });
    EXPECT_EQ(outside, 0u)
        << "tenant a's fills leaked outside its single-way partition";
    EXPECT_GT(hier.llc().tags().countValid(
                  [](const cache::CacheLine &, std::uint32_t way) {
                      return way == 2;
                  }),
              0u);
}

TEST(TenantManager, SetPartitionReprogramsMasksAndCounts)
{
    auto cfg = testutil::tinyConfig();
    cfg.llcPerCore = {8192 / 2, 8, 24}; // 8 ways: 2 I/O + 6 tenant
    sim::Simulation sim_;
    cache::MemoryHierarchy hier(sim_, "sys", cfg);
    tenant::TenantManager mgr(sim_, "tenants", hier, twoTenants(),
                              /*partitioned=*/true);

    EXPECT_EQ(mgr.tenant(0).ways, 3u);
    EXPECT_EQ(mgr.tenant(1).ways, 3u);
    EXPECT_EQ(mgr.maskReconfigs(0), 0u) << "initial layout is free";

    mgr.setPartition({4, 2});
    EXPECT_EQ(mgr.tenant(0).mask, cache::WayMask(0b00111100));
    EXPECT_EQ(mgr.tenant(1).mask, cache::WayMask(0b11000000));
    EXPECT_EQ(hier.coreAllocMask(0), mgr.tenant(0).mask);
    EXPECT_EQ(hier.coreAllocMask(1), mgr.tenant(1).mask);
    EXPECT_EQ(mgr.maskReconfigs(0), 1u);
    EXPECT_EQ(mgr.maskReconfigs(1), 1u);

    // A no-op repartition reprograms nothing.
    mgr.setPartition({4, 2});
    EXPECT_EQ(mgr.maskReconfigs(0), 1u);
    EXPECT_EQ(mgr.maskReconfigs(1), 1u);
}

TEST(TenantManagerDeath, InvalidPartitionsAreFatal)
{
    sim::Simulation sim_;
    cache::MemoryHierarchy hier(sim_, "sys", testutil::tinyConfig());
    tenant::TenantManager mgr(sim_, "tenants", hier, twoTenants(),
                              /*partitioned=*/true);

    EXPECT_EXIT(mgr.setPartition({0, 2}),
                ::testing::ExitedWithCode(1), "zero-way");
    EXPECT_EXIT(mgr.setPartition({2, 2}),
                ::testing::ExitedWithCode(1), "available");
    EXPECT_EXIT(mgr.setPartition({1}),
                ::testing::ExitedWithCode(1), "way counts");

    sim::Simulation sim2;
    cache::MemoryHierarchy hier2(sim2, "sys", testutil::tinyConfig());
    tenant::TenantManager shared(sim2, "tenants", hier2, twoTenants(),
                                 /*partitioned=*/false);
    EXPECT_EXIT(shared.setPartition({1, 1}),
                ::testing::ExitedWithCode(1), "unpartitioned");
}

// ---------------------------------------------------------------
// Harness tenant mode.
// ---------------------------------------------------------------

constexpr sim::Tick quantum = 10 * sim::oneUs;

/**
 * Three-tenant noisy-neighbor mini mix (a short tenant_mix): one
 * latency-critical steady NF, one bursty throughput NF that departs
 * at 150 us, one best-effort antagonist.
 */
harness::ExperimentConfig
mixConfig(harness::TenantPartition part,
          idio::Policy policy = idio::Policy::Ddio)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(policy);
    cfg.tenantPartition = part;
    cfg.nic.ringSize = 256;
    cfg.burstPeriod = 50 * sim::oneUs;
    cfg.rateGbps = 100.0;

    harness::TenantSpec rpc;
    rpc.name = "rpc";
    rpc.slo = tenant::SloClass::LatencyCritical;
    rpc.traffic = harness::TrafficKind::Steady;
    rpc.rateGbps = 10.0;

    harness::TenantSpec batch;
    batch.name = "batch";
    batch.slo = tenant::SloClass::Throughput;
    batch.traffic = harness::TrafficKind::Bursty;
    batch.stopAt = 150 * sim::oneUs;

    harness::TenantSpec antag;
    antag.name = "antag";
    antag.slo = tenant::SloClass::BestEffort;
    antag.antagonist = true;

    cfg.tenants = {rpc, batch, antag};
    return cfg;
}

std::string
statsJson(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return os.str();
}

TEST(TenantSystem, PerTenantTotalsPartitionTheRun)
{
    harness::TestSystem sys(mixConfig(harness::TenantPartition::None));
    sys.start();
    sys.runFor(20 * quantum);

    const auto tt = sys.tenantTotals();
    ASSERT_EQ(tt.size(), 3u);
    EXPECT_GT(tt[0].rxPackets, 0u);
    EXPECT_GT(tt[0].processedPackets, 0u);
    EXPECT_GT(tt[1].rxPackets, 0u);
    EXPECT_EQ(tt[2].rxPackets, 0u) << "antagonists carry no traffic";
    EXPECT_EQ(tt[2].processedPackets, 0u);
    EXPECT_GT(tt[2].mlcWritebacks, 0u) << "aggressor must thrash";

    // The per-tenant slices sum to the run totals exactly.
    const auto t = sys.totals();
    std::uint64_t rx = 0, drops = 0, processed = 0;
    for (const auto &x : tt) {
        rx += x.rxPackets;
        drops += x.rxDrops;
        processed += x.processedPackets;
    }
    EXPECT_EQ(rx, t.rxPackets);
    EXPECT_EQ(drops, t.rxDrops);
    EXPECT_EQ(processed, t.processedPackets);
}

TEST(TenantSystem, StaticPartitionConfinesTenantFills)
{
    harness::TestSystem sys(
        mixConfig(harness::TenantPartition::Static));
    sys.start();
    sys.runFor(10 * quantum);

    const tenant::TenantManager &mgr = *sys.tenantManager();
    cache::MemoryHierarchy &hier = sys.hierarchy();
    // Every valid LLC line outside the I/O partition must sit inside
    // some tenant's current mask (fills can never land between or
    // across partitions).
    cache::WayMask unionMask = cache::lowWays(mgr.ioWays());
    for (std::uint32_t id = 0; id < mgr.numTenants(); ++id)
        unionMask |= mgr.tenant(id).mask;
    const auto strays = hier.llc().tags().countValid(
        [&](const cache::CacheLine &, std::uint32_t way) {
            return (unionMask & (cache::WayMask(1) << way)) == 0;
        });
    EXPECT_EQ(strays, 0u);
}

TEST(TenantSystem, MidRunReconfigIsDeterministic)
{
    const auto cfg = mixConfig(harness::TenantPartition::Static);

    auto runWithReconfig = [&](harness::TestSystem &sys) {
        sys.start();
        sys.runFor(5 * quantum);
        // Deterministic tick: both runs reprogram at exactly 50 us.
        sys.tenantManager()->setPartition({6, 2, 2});
        sys.runFor(15 * quantum);
    };

    harness::TestSystem a(cfg);
    runWithReconfig(a);
    harness::TestSystem b(cfg);
    runWithReconfig(b);

    EXPECT_EQ(a.tenantManager()->maskReconfigs(0), 1u);
    EXPECT_EQ(a.totals(), b.totals());
    EXPECT_EQ(a.tenantTotals(), b.tenantTotals());
    EXPECT_EQ(statsJson(a), statsJson(b));
}

TEST(TenantSystem, IocaShiftsWaysTowardWeightedPressure)
{
    auto cfg = mixConfig(harness::TenantPartition::Ioca);
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(30 * quantum); // six 50 us controller intervals

    const tenant::TenantManager &mgr = *sys.tenantManager();
    ASSERT_NE(sys.iocaController(), nullptr);
    EXPECT_GT(sys.iocaController()->evaluations.get(), 0u);
    EXPECT_GT(sys.iocaController()->reallocations.get(), 0u);

    // Table I LLC: 12 ways, 2 I/O -> 10 tenant ways, initial 4/3/3.
    // The zero-weight antagonist must drain toward the 1-way floor
    // and the latency-critical tenant must grow past its seed share.
    EXPECT_GT(mgr.tenant(0).ways, 4u);
    EXPECT_LT(mgr.tenant(2).ways, 3u);

    std::uint32_t sum = 0;
    for (std::uint32_t id = 0; id < mgr.numTenants(); ++id) {
        EXPECT_GE(mgr.tenant(id).ways, 1u);
        sum += mgr.tenant(id).ways;
    }
    EXPECT_LE(sum, mgr.partitionWays());
}

/**
 * A one-tenant config runs exactly like its run-wide twin, whatever
 * the NF kind: the tenant's kind picks its port's DSCP class (class 1
 * for the payload-dropping firewall), so IDIO steers the same
 * payloads to DRAM.
 */
class TenantNfKind : public ::testing::TestWithParam<harness::NfKind>
{
  protected:
    static harness::ExperimentConfig
    twin()
    {
        harness::ExperimentConfig cfg;
        cfg.applyPolicy(idio::Policy::Idio);
        cfg.numNfs = 1;
        cfg.nfKind = GetParam();
        cfg.traffic = harness::TrafficKind::Poisson;
        cfg.rateGbps = 8.0;
        return cfg;
    }

    static harness::ExperimentConfig
    oneTenant()
    {
        harness::ExperimentConfig cfg;
        cfg.applyPolicy(idio::Policy::Idio);
        cfg.rateGbps = 8.0;
        harness::TenantSpec solo;
        solo.name = "solo";
        solo.nfKind = GetParam();
        solo.traffic = harness::TrafficKind::Poisson;
        cfg.tenants = {solo};
        return cfg;
    }
};

TEST_P(TenantNfKind, OneTenantMatchesRunWideTwin)
{
    harness::TestSystem ref(twin());
    harness::TestSystem got(oneTenant());
    for (harness::TestSystem *sys : {&ref, &got}) {
        sys->start();
        sys->runFor(2 * sim::oneMs);
    }
    EXPECT_GT(got.totals().processedPackets, 0u);
    EXPECT_EQ(got.totals(), ref.totals());
    EXPECT_EQ(got.controller().directDramSteers.get(),
              ref.controller().directDramSteers.get());
}

INSTANTIATE_TEST_SUITE_P(
    NfKinds, TenantNfKind,
    ::testing::Values(harness::NfKind::TouchDrop,
                      harness::NfKind::CopyTouchDrop,
                      harness::NfKind::L2Fwd,
                      harness::NfKind::L2FwdDropPayload),
    [](const ::testing::TestParamInfo<harness::NfKind> &info) {
        return std::string(harness::nfKindName(info.param));
    });

TEST(TenantSystemDeath, NegativeTenantRateIsFatal)
{
    auto cfg = mixConfig(harness::TenantPartition::None);
    cfg.tenants[1].rateGbps = -1.0;
    EXPECT_EXIT(harness::TestSystem{cfg}, ::testing::ExitedWithCode(1),
                "tenant 'batch' has rateGbps -1");
}

TEST(TenantCkpt, MidBurstRoundTripIsBitIdentical)
{
    const auto cfg = mixConfig(harness::TenantPartition::Ioca);
    constexpr sim::Tick ckptTick = 8 * quantum; // past one realloc
    constexpr sim::Tick endTick = 20 * quantum;

    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    ASSERT_FALSE(blob.empty());
    cold.runFor(endTick - ckptTick);

    harness::TestSystem warm(cfg);
    warm.start();
    warm.restore(blob);
    EXPECT_EQ(warm.simulation().now(), ckptTick);
    warm.runFor(endTick - ckptTick);

    EXPECT_EQ(warm.totals(), cold.totals());
    EXPECT_EQ(warm.tenantTotals(), cold.tenantTotals());
    EXPECT_EQ(statsJson(warm), statsJson(cold));

    const tenant::TenantManager &cm = *cold.tenantManager();
    const tenant::TenantManager &wm = *warm.tenantManager();
    for (std::uint32_t id = 0; id < cm.numTenants(); ++id) {
        EXPECT_EQ(wm.tenant(id).ways, cm.tenant(id).ways);
        EXPECT_EQ(wm.tenant(id).mask, cm.tenant(id).mask);
        EXPECT_EQ(warm.hierarchy().coreAllocMask(
                      cm.tenant(id).cores.front()),
                  cm.tenant(id).mask);
    }
    EXPECT_EQ(warm.iocaController()->reallocations.get(),
              cold.iocaController()->reallocations.get());
}

TEST(TenantCkpt, TraceIsByteIdenticalAfterRestore)
{
    const auto cfg = mixConfig(harness::TenantPartition::Ioca);
    constexpr sim::Tick ckptTick = 8 * quantum;
    constexpr sim::Tick endTick = 16 * quantum;

    const std::string coldPath =
        ::testing::TempDir() + "/tenant_cold_trace.json";
    const std::string warmPath =
        ::testing::TempDir() + "/tenant_warm_trace.json";

    harness::TestSystem cold(cfg);
    harness::enableTracing(cold);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    cold.runFor(endTick - ckptTick);
    ASSERT_TRUE(trace::writeChromeTrace(coldPath,
                                        cold.simulation().tracer()));

    harness::TestSystem warm(cfg);
    harness::enableTracing(warm);
    warm.start();
    warm.restore(blob);
    warm.runFor(endTick - ckptTick);
    ASSERT_TRUE(trace::writeChromeTrace(warmPath,
                                        warm.simulation().tracer()));

    std::ifstream a(coldPath), b(warmPath);
    const std::string coldTrace((std::istreambuf_iterator<char>(a)),
                                std::istreambuf_iterator<char>());
    const std::string warmTrace((std::istreambuf_iterator<char>(b)),
                                std::istreambuf_iterator<char>());
    ASSERT_FALSE(coldTrace.empty());
    EXPECT_EQ(coldTrace, warmTrace);
}

} // anonymous namespace
