/**
 * @file
 * Whole-system differential runs against a reference scheduler mode.
 *
 * A reference is the same seeded configuration run with one of the
 * event queue's batching paths turned off through a test seam (cores
 * never sleep; the agent never runs ahead). Both runs must agree byte
 * for byte on every output: the stats JSON, the Totals, the
 * per-tenant totals, the packet-lifecycle trace and an in-run
 * timeline that samples counters a sleeping core owes. Only the
 * number of wheel dispatches may differ.
 */

#ifndef IDIO_TESTS_INTEGRATION_REFERENCE_RUN_HH
#define IDIO_TESTS_INTEGRATION_REFERENCE_RUN_HH

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "harness/run_report.hh"
#include "harness/system.hh"
#include "sim/rng.hh"
#include "stats/json.hh"
#include "trace/chrome_export.hh"

namespace simtest
{

/** Everything a run produced, plus its scheduler counters. */
struct Artifacts
{
    harness::Totals totals;
    std::vector<harness::TenantTotals> tenants;
    std::string stats;
    std::string trace;
    std::vector<double> timeline;
    std::uint64_t events = 0; ///< wheel dispatches
    std::uint64_t steps = 0;  ///< logical steps
    std::uint64_t sweeps = 0;
};

/** A test seam applied to the queue before the run, or none. */
using Seam = std::function<void(sim::EventQueue &)>;

inline std::string
statsJson(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return os.str();
}

inline std::string
traceBytes(harness::TestSystem &sys, const std::string &tag)
{
    const std::string path =
        ::testing::TempDir() + "/reference_run_" + tag + "_trace.json";
    EXPECT_TRUE(trace::writeChromeTrace(path, sys.simulation().tracer()));
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Apply @p seam (if any), turn the tracer on and add an in-run
 * sampler over counters the sleeping cores owe.
 */
inline void
prepare(harness::TestSystem &sys, const Seam &seam)
{
    if (seam)
        seam(sys.simulation().eventq());
    harness::enableTracing(sys, 1u << 14);
    auto &nf0 = sys.nf(0);
    sys.timeline().trackRate("emptyPolls",
                             [&nf0] { return nf0.emptyPolls.get(); });
    sys.timeline().trackRate("l1Hits", [&sys] {
        return sys.hierarchy().l1(0).hits.get();
    });
}

inline Artifacts
collect(harness::TestSystem &sys, const std::string &tag)
{
    Artifacts a;
    a.totals = sys.totals();
    a.tenants = sys.tenantTotals();
    a.stats = statsJson(sys);
    a.trace = traceBytes(sys, tag);
    for (const char *name : {"emptyPolls", "l1Hits"})
        for (const auto &p : sys.timeline().series(name).points())
            a.timeline.push_back(p.value);
    a.events = sys.simulation().totalProcessedEvents();
    a.steps = sys.simulation().totalLogicalSteps();
    a.sweeps = sys.invariantChecker().sweeps();
    return a;
}

/**
 * Run @p cfg in @p slices uneven slices of 5–44 us (every slice end is
 * a run limit and wakes the cores), then to the checker's sweep grid.
 */
inline Artifacts
runSliced(const harness::ExperimentConfig &cfg, const Seam &seam,
          const std::string &tag, int slices = 6)
{
    harness::TestSystem sys(cfg);
    prepare(sys, seam);
    sys.start();
    sys.timeline().start();
    sim::Rng rng(cfg.seed * 7919);
    for (int i = 0; i < slices; ++i)
        sys.runFor((5 + rng.below(40)) * sim::oneUs);
    const sim::Tick grid = harness::TestSystem::checkGrid;
    sys.runFor(grid - sys.simulation().now() % grid);
    return collect(sys, tag);
}

/**
 * @p got matches @p ref in every output and ran the same logical
 * steps. Dispatch counts are the caller's to compare.
 */
inline void
expectSameOutputs(const Artifacts &got, const Artifacts &ref,
                  const std::string &what)
{
    EXPECT_EQ(got.totals, ref.totals) << what;
    EXPECT_EQ(got.tenants, ref.tenants) << what;
    EXPECT_EQ(got.stats, ref.stats) << what;
    EXPECT_EQ(got.trace, ref.trace) << what;
    EXPECT_EQ(got.timeline, ref.timeline) << what;
    EXPECT_GT(ref.totals.processedPackets, 0u) << what;
    if (sim::InvariantChecker::compiledIn) {
        EXPECT_GT(got.sweeps, 0u) << what << ": the checker never swept";
    }
}

/**
 * Poll grid on the DMA pump grid: 1 GHz cores (whole-ns latencies),
 * @p pcieGBps PCIe (16 GB/s: 4 ns per line) and an idle gap that makes
 * the poll period (L1 latency + gap) a whole number of line times near
 * 100 ns. Every event then lands on a whole ns and repeats share ticks
 * with DMA completions.
 */
inline void
alignGrids(harness::ExperimentConfig &cfg, double pcieGBps = 16.0)
{
    cfg.hier.cpuFreqGHz = 1.0;
    cfg.nic.pcieGBps = pcieGBps;
    const double lineNs = 64.0 / pcieGBps;
    const double periodNs = lineNs * std::round(100.0 / lineNs);
    cfg.nf.idlePollGapNs = periodNs - cfg.hier.l1.latencyCycles;
    cfg.nf.perPacketCostNs = 100.0;
    cfg.nf.perLineCostNs = 8.0;
}

} // namespace simtest

#endif // IDIO_TESTS_INTEGRATION_REFERENCE_RUN_HH
