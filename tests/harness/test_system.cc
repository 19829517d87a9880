/**
 * @file
 * TestSystem builder tests.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "tenant_scenario.hh"

namespace
{

/** One machine layout and the topology TestSystem must build. */
struct Topology
{
    const char *name;
    harness::ExperimentConfig (*config)();
    std::uint32_t cores;
    std::uint32_t ports;
    std::uint32_t queuesPerPort;
    std::vector<std::string> aggressors;
    bool tenants;
};

void
PrintTo(const Topology &t, std::ostream *os)
{
    *os << t.name;
}

harness::ExperimentConfig
legacy3()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 3;
    return cfg;
}

harness::ExperimentConfig
legacy2Antag()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.withAntagonist = true;
    return cfg;
}

harness::ExperimentConfig
multiQueue4Antag()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 4;
    cfg.rxQueues = 4;
    cfg.withAntagonist = true;
    return cfg;
}

harness::ExperimentConfig
tenantMix()
{
    return bench::tenantMixConfig(bench::tenantSchemes[0]);
}

harness::ExperimentConfig
singleTenant()
{
    harness::ExperimentConfig cfg;
    harness::TenantSpec solo;
    solo.name = "solo";
    cfg.tenants = {solo};
    return cfg;
}

class SystemTopology : public ::testing::TestWithParam<Topology>
{
};

TEST_P(SystemTopology, BuildsPlannedMachine)
{
    const Topology &want = GetParam();
    const harness::ExperimentConfig cfg = want.config();
    harness::TestSystem sys(cfg);
    cache::MemoryHierarchy &hier = sys.hierarchy();

    const auto numAggressors =
        static_cast<std::uint32_t>(want.aggressors.size());
    EXPECT_EQ(hier.numCores(), want.cores);
    EXPECT_EQ(sys.numNfs(), want.cores - numAggressors);
    // Total LLC scales with core count (per-core slices).
    EXPECT_EQ(hier.llc().tags().capacityBytes(),
              std::uint64_t(want.cores) * cfg.hier.llcPerCore.sizeBytes);

    ASSERT_EQ(sys.numPorts(), want.ports);
    for (std::uint32_t p = 0; p < want.ports; ++p)
        EXPECT_EQ(sys.nicPort(p).numQueues(), want.queuesPerPort);

    // Aggressors follow the NF cores and run on the shrunken MLC.
    ASSERT_EQ(sys.antagonists().size(), want.aggressors.size());
    for (std::uint32_t i = 0; i < numAggressors; ++i)
        EXPECT_EQ(sys.antagonists()[i]->name(), want.aggressors[i]);
    for (std::uint32_t c = 0; c < want.cores; ++c) {
        const bool aggressor = c >= want.cores - numAggressors;
        EXPECT_EQ(hier.mlcOf(c).tags().capacityBytes(),
                  aggressor ? 256u * 1024 : 1024u * 1024)
            << "core " << c;
    }

    EXPECT_EQ(sys.tenantManager() != nullptr, want.tenants);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SystemTopology,
    ::testing::Values(
        Topology{"legacy_3nf", legacy3, 3, 3, 1, {}, false},
        Topology{"legacy_2nf_antag", legacy2Antag, 3, 2, 1,
                 {"system.antag"}, false},
        Topology{"multi_queue_4_antag", multiQueue4Antag, 5, 1, 4,
                 {"system.antag"}, false},
        Topology{"tenant_mix", tenantMix, 4, 3, 1,
                 {"system.antag.antag0"}, true},
        Topology{"single_tenant", singleTenant, 1, 1, 1, {}, true}),
    [](const ::testing::TestParamInfo<Topology> &info) {
        return std::string(info.param.name);
    });

TEST(System, BuildsRequestedTopology)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 3;
    cfg.withAntagonist = true;
    harness::TestSystem sys(cfg);

    EXPECT_EQ(sys.numNfs(), 3u);
    EXPECT_EQ(sys.hierarchy().numCores(), 4u);
    EXPECT_EQ(sys.antagonists().size(), 1u);
    // Total LLC scales with core count (per-core slices).
    EXPECT_EQ(sys.hierarchy().llc().tags().capacityBytes(),
              4ull * cfg.hier.llcPerCore.sizeBytes);
}

TEST(System, AntagonistMlcShrunk)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.withAntagonist = true;
    harness::TestSystem sys(cfg);

    EXPECT_EQ(sys.hierarchy().mlcOf(2).tags().capacityBytes(),
              256u * 1024);
    EXPECT_EQ(sys.hierarchy().mlcOf(0).tags().capacityBytes(),
              1024u * 1024);
}

TEST(System, NoAntagonistByDefault)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    EXPECT_TRUE(sys.antagonists().empty());
    EXPECT_EQ(sys.hierarchy().numCores(), 2u);
}

harness::ExperimentConfig
multiQueue8Antag()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 8;
    cfg.rxQueues = 8;
    cfg.withAntagonist = true;
    return cfg;
}

/** Where one packet went, as the trace records it. */
struct PacketPath
{
    std::uint32_t port = 0;
    sim::CoreId destCore = 0; ///< the classifier's (every TLP's) core
    std::uint32_t queue = ~0u;   ///< ring whose descriptor completed
    sim::CoreId consumer = ~0u;  ///< core whose NF processed it
};

TEST(System, FlowRulesSteerToOwnCore)
{
    // Every flow is steered to a core of its own port. A port is a
    // range of cores: NF cores are numbered in port order, so port p's
    // first core is the sum of the earlier ports' queues, and ring q of
    // port p is polled by its first core + q. Every delivered packet's
    // destination core must lie in its port's range and be the core
    // that consumes its ring.
#if !IDIO_TRACE
    GTEST_SKIP() << "tracing compiled out (IDIO_TRACE=0)";
#else
    const struct
    {
        const char *name;
        harness::ExperimentConfig (*config)();
    } layouts[] = {{"legacy_3nf", legacy3},
                   {"tenant_mix", tenantMix},
                   {"multi_queue_8_antag", multiQueue8Antag}};
    for (const auto &layout : layouts) {
        SCOPED_TRACE(layout.name);
        harness::TestSystem sys(layout.config());
        trace::Tracer &tracer = sys.simulation().tracer();
        tracer.setCapacity(1 << 16);
        tracer.enable();
        sys.start();
        sys.runFor(40 * sim::oneUs);

        std::vector<sim::CoreId> firstCore;
        sim::CoreId next = 0;
        for (std::uint32_t p = 0; p < sys.numPorts(); ++p) {
            firstCore.push_back(next);
            next += sys.nicPort(p).numQueues();
        }
        ASSERT_EQ(next, sys.numNfs());

        std::map<std::uint64_t, PacketPath> paths;
        for (const auto &src : tracer.sources()) {
            std::uint32_t port = sys.numPorts();
            for (std::uint32_t p = 0; p < sys.numPorts(); ++p)
                if (src->name() == sys.nicPort(p).name())
                    port = p;
            src->forEach([&](const trace::Event &ev) {
                if (ev.kind == trace::EventKind::NicClassify) {
                    ASSERT_LT(port, sys.numPorts()) << src->name();
                    paths[ev.pktId].port = port;
                    paths[ev.pktId].destCore =
                        static_cast<sim::CoreId>(ev.argB);
                } else if (ev.kind == trace::EventKind::NicDescWb) {
                    paths[ev.pktId].queue = ev.argA;
                } else if (ev.kind == trace::EventKind::NfConsume) {
                    paths[ev.pktId].consumer = ev.argA;
                }
            });
            if (port < sys.numPorts()) {
                ASSERT_EQ(src->dropped(), 0u) << src->name();
            }
        }

        std::vector<std::uint64_t> perCore(sys.numNfs(), 0);
        for (const auto &[id, path] : paths) {
            const sim::CoreId first = firstCore[path.port];
            const std::uint32_t queues =
                sys.nicPort(path.port).numQueues();
            ASSERT_GE(path.destCore, first) << "packet " << id;
            ASSERT_LT(path.destCore, first + queues) << "packet " << id;
            if (path.queue != ~0u) {
                EXPECT_EQ(path.destCore, first + path.queue)
                    << "packet " << id;
            }
            if (path.consumer != ~0u) {
                EXPECT_EQ(path.consumer, path.destCore)
                    << "packet " << id;
            }
            ++perCore[path.destCore];
        }
        // Every NF core, so every ring of every port, got packets.
        for (sim::CoreId c = 0; c < sys.numNfs(); ++c)
            EXPECT_GT(perCore[c], 0u) << "core " << c;
        EXPECT_EQ(paths.size(), sys.totals().rxPackets -
                                    sys.totals().rxDrops);
    }
#endif
}

TEST(System, PolicyDrivesNfSelfInvalidation)
{
    // M1 is a function of the policy; no config field can disagree.
    for (const idio::Policy p :
         {idio::Policy::Ddio, idio::Policy::InvalidateOnly,
          idio::Policy::PrefetchOnly, idio::Policy::Static,
          idio::Policy::Idio}) {
        harness::ExperimentConfig cfg;
        cfg.applyPolicy(p);
        harness::TestSystem sys(cfg);
        for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
            EXPECT_EQ(sys.nf(i).selfInvalidates(),
                      cfg.idio.selfInvalidate())
                << idio::policyName(p);
        }
    }
}

TEST(SystemDeath, PlanOwnedHierarchyFieldsAreRefused)
{
    // The machine plan sets these; a config that does is fatal, not
    // silently overridden.
    harness::ExperimentConfig cores;
    cores.hier.numCores = 8;
    EXPECT_EXIT(harness::TestSystem sys(cores),
                ::testing::ExitedWithCode(1), "hier.numCores");
    harness::ExperimentConfig mlc;
    mlc.hier.mlcSizeOverride = {0, 256 * 1024};
    EXPECT_EXIT(harness::TestSystem sys(mlc),
                ::testing::ExitedWithCode(1), "follow the machine plan");
}

TEST(System, SummaryMentionsKeyParameters)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.rateGbps = 25.0;
    const auto s = cfg.summary();
    EXPECT_NE(s.find("IDIO"), std::string::npos);
    EXPECT_NE(s.find("25"), std::string::npos);
    EXPECT_NE(s.find("TouchDrop"), std::string::npos);
}

TEST(System, SummaryDescribesThePlannedMachine)
{
    // The summary and the config echo derive from the machine plan,
    // so they name the machine TestSystem builds, not the run-wide
    // defaults.
    const struct
    {
        harness::ExperimentConfig cfg;
        std::vector<std::string> mentions;
    } cases[] = {
        {legacy2Antag(),
         {"2x TouchDrop, policy=DDIO", ", +1x LLCAntagonist"}},
        {multiQueue8Antag(),
         {"8x TouchDrop, policy=DDIO", ", rxq=8, flows=32",
          ", +1x LLCAntagonist"}},
        {tenantMix(),
         {"rpc: 1x TouchDrop steady @ 10 Gbps + batch: 2x TouchDrop "
          "bursty @ 100 Gbps, policy=DDIO",
          ", +1x LLCAntagonist, tenants=3(shared)"}},
    };
    for (const auto &c : cases) {
        const std::string s = c.cfg.summary();
        for (const std::string &m : c.mentions)
            EXPECT_NE(s.find(m), std::string::npos) << s << " lacks " << m;

        const cache::HierarchyConfig planned =
            harness::planMachine(c.cfg).hierarchy(c.cfg.hier);
        harness::TestSystem sys(c.cfg);
        EXPECT_EQ(planned.numCores, sys.hierarchy().numCores()) << s;
        EXPECT_EQ(planned.llcSizeBytes(),
                  sys.hierarchy().llc().tags().capacityBytes())
            << s;
    }
}

TEST(System, RunAdvancesSimulatedTime)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(sim::oneMs);
    EXPECT_EQ(sys.simulation().now(), sim::oneMs);
}

TEST(System, TotalsSnapshotDelta)
{
    harness::ExperimentConfig cfg;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = 5.0;
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(sim::oneMs);
    const auto a = sys.totals();
    sys.runFor(sim::oneMs);
    const auto b = sys.totals();
    const auto d = b - a;
    EXPECT_GT(d.rxPackets, 0u);
    EXPECT_LE(d.rxPackets, b.rxPackets);
}

/**
 * runFor() sweeps the invariant checker once after a call that
 * crossed a multiple of TestSystem::checkGrid (landing on one counts).
 */
class InvariantSweepGrid : public ::testing::Test
{
  protected:
    InvariantSweepGrid() : sys(config()) { sys.start(); }

    static harness::ExperimentConfig
    config()
    {
        harness::ExperimentConfig cfg;
        cfg.traffic = harness::TrafficKind::Steady;
        cfg.rateGbps = 5.0;
        return cfg;
    }

    /** Sweeps so far (none when the checker is compiled out). */
    std::uint64_t sweeps() { return sys.invariantChecker().sweeps(); }

    static std::uint64_t
    expected(std::uint64_t n)
    {
        return sim::InvariantChecker::compiledIn ? n : 0;
    }

    static constexpr sim::Tick grid = harness::TestSystem::checkGrid;
    harness::TestSystem sys;
};

TEST_F(InvariantSweepGrid, CallCrossingNoGridPointDoesNotSweep)
{
    sys.runFor(grid / 2);
    sys.runFor(grid / 2 - sim::oneNs);
    EXPECT_EQ(sweeps(), 0u);
}

TEST_F(InvariantSweepGrid, CallCrossingSeveralGridPointsSweepsOnce)
{
    sys.runFor(grid / 2);
    sys.runFor(3 * grid); // crosses 100, 200 and 300 us
    EXPECT_EQ(sweeps(), expected(1));
}

TEST_F(InvariantSweepGrid, TenMicrosecondStepsSweepOncePerGridPoint)
{
    for (int i = 0; i < 100; ++i)
        sys.runFor(10 * sim::oneUs);
    ASSERT_EQ(sys.simulation().now(), 10 * grid);
    EXPECT_EQ(sweeps(), expected(10));
}

TEST(SystemDeath, DoubleStartPanics)
{
    harness::ExperimentConfig cfg;
    harness::TestSystem sys(cfg);
    sys.start();
    EXPECT_DEATH(sys.start(), "started twice");
}

} // anonymous namespace
