/**
 * @file
 * Trace/Totals cross-check: every count derived from the packet
 * lifecycle trace must exactly equal the simulator's own counters.
 * This is the in-process twin of the CI trace smoke
 * (tools/trace_summary.py --check-totals).
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "harness/trace_artifacts.hh"
#include "trace/events.hh"
#include "trace/tracer.hh"

namespace
{

using trace::EventKind;

harness::ExperimentConfig
smallConfig(harness::NfKind nf, idio::Policy policy)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = nf;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    cfg.burstPackets = 256; // one small burst: no ring wraparound
    cfg.applyPolicy(policy);
    return cfg;
}

void
checkTraceMatchesTotals([[maybe_unused]] const harness::ExperimentConfig &cfg)
{
#if !IDIO_TRACE
    GTEST_SKIP() << "tracing compiled out (IDIO_TRACE=0)";
#else
    harness::TestSystem sys(cfg);
    harness::enableTracing(sys);
    sys.start();
    sys.runFor(10 * sim::oneMs); // one burst period

    const trace::Tracer &tracer = sys.simulation().tracer();
    ASSERT_EQ(tracer.totalDropped(), 0u)
        << "ring wraparound would invalidate the cross-check";

    const harness::Totals t = sys.totals();
    ASSERT_GT(t.rxPackets, 0u);
    ASSERT_GT(t.processedPackets, 0u);

    EXPECT_EQ(tracer.count(EventKind::NicRx), t.rxPackets);
    EXPECT_EQ(tracer.count(EventKind::NicDrop), t.rxDrops);
    EXPECT_EQ(tracer.count(EventKind::NfConsume),
              t.processedPackets);
    EXPECT_EQ(tracer.count(EventKind::CacheMlcEvict),
              t.mlcWritebacks);
    EXPECT_EQ(tracer.count(EventKind::CachePcieInval),
              t.mlcPcieInvals);
    EXPECT_EQ(tracer.count(EventKind::CacheLlcWb), t.llcWritebacks);

    cache::MemoryHierarchy &hier = sys.hierarchy();
    EXPECT_EQ(tracer.count(EventKind::CacheDdioUpdate),
              hier.llc().ddioUpdates.get());
    EXPECT_EQ(tracer.count(EventKind::CacheDdioAlloc),
              hier.llc().ddioAllocs.get());
    EXPECT_EQ(tracer.count(EventKind::CacheDramDirect),
              hier.directDramWrites.get());

    std::uint64_t prefetchFills = 0;
    std::uint64_t selfInvals = 0;
    for (std::uint32_t c = 0; c < hier.numCores(); ++c) {
        prefetchFills += hier.mlcOf(c).prefetchFills.get();
        selfInvals += hier.mlcOf(c).selfInvals.get();
    }
    EXPECT_EQ(tracer.count(EventKind::CacheMlcPrefetchFill),
              prefetchFills);
    EXPECT_EQ(tracer.count(EventKind::CacheSelfInval), selfInvals);

    // Every inbound DMA cacheline takes exactly one placement path.
    EXPECT_EQ(tracer.count(EventKind::CacheDdioUpdate) +
                  tracer.count(EventKind::CacheDdioAlloc) +
                  tracer.count(EventKind::CacheDramDirect),
              hier.pcieWrites.get());

    // Lifecycle consistency: an mbuf is freed at most once per
    // consumed packet (async-completion NFs may end the run with
    // frees still in flight), and the ring re-arms at most one mbuf
    // per consumed descriptor.
    EXPECT_GT(tracer.count(EventKind::DpdkFree), 0u);
    EXPECT_LE(tracer.count(EventKind::DpdkFree),
              t.processedPackets);
    EXPECT_LE(tracer.count(EventKind::DpdkAlloc),
              t.processedPackets);
#endif // IDIO_TRACE
}

TEST(TraceTotals, DdioTouchDrop)
{
    checkTraceMatchesTotals(
        smallConfig(harness::NfKind::TouchDrop, idio::Policy::Ddio));
}

TEST(TraceTotals, IdioTouchDrop)
{
    checkTraceMatchesTotals(
        smallConfig(harness::NfKind::TouchDrop, idio::Policy::Idio));
}

TEST(TraceTotals, IdioL2FwdDropPayloadExercisesDirectDram)
{
    const auto cfg = smallConfig(harness::NfKind::L2FwdDropPayload,
                                 idio::Policy::Idio);
    checkTraceMatchesTotals(cfg);
}

TEST(TraceTotals, TracingDoesNotPerturbTheRun)
{
#if !IDIO_TRACE
    GTEST_SKIP() << "tracing compiled out (IDIO_TRACE=0)";
#else
    // A traced run and an untraced run of the same config must
    // produce identical totals: observation must not change the
    // simulated behaviour.
    const auto cfg =
        smallConfig(harness::NfKind::TouchDrop, idio::Policy::Idio);

    harness::TestSystem plain(cfg);
    plain.start();
    plain.runFor(10 * sim::oneMs);

    harness::TestSystem traced(cfg);
    harness::enableTracing(traced);
    traced.start();
    traced.runFor(10 * sim::oneMs);

    EXPECT_EQ(plain.totals(), traced.totals());
#endif // IDIO_TRACE
}

} // anonymous namespace
