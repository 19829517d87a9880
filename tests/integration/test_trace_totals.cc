/**
 * @file
 * Trace/report cross-check: every count derived from the packet
 * lifecycle trace must exactly equal the simulator's own counters,
 * as harness::captureReport reports them.
 * This is the in-process twin of the CI trace smoke
 * (tools/trace_summary.py --check-totals).
 */

#include <gtest/gtest.h>

#include "harness/run_report.hh"
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
    const harness::RunReport r =
        harness::captureReport(sys, sys.simulation().now());
    ASSERT_EQ(r.traceDropped, 0u)
        << "ring wraparound would invalidate the cross-check";

    const harness::Totals &t = r.totals;
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

    EXPECT_EQ(tracer.count(EventKind::CacheDdioUpdate), r.ddioUpdates);
    EXPECT_EQ(tracer.count(EventKind::CacheDdioAlloc), r.ddioAllocs);
    EXPECT_EQ(tracer.count(EventKind::CacheDramDirect),
              r.directDramWrites);
    EXPECT_EQ(tracer.count(EventKind::CacheMlcPrefetchFill),
              r.mlcPrefetchFills);
    EXPECT_EQ(tracer.count(EventKind::CacheSelfInval), r.mlcSelfInvals);

    // Every inbound DMA cacheline takes exactly one placement path.
    EXPECT_EQ(tracer.count(EventKind::CacheDdioUpdate) +
                  tracer.count(EventKind::CacheDdioAlloc) +
                  tracer.count(EventKind::CacheDramDirect),
              r.pcieWrites);

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
    // produce identical reports: observation must not change the
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

    EXPECT_EQ(harness::captureReport(plain, plain.simulation().now()),
              harness::captureReport(traced, traced.simulation().now()));
#endif // IDIO_TRACE
}

} // anonymous namespace
