/**
 * @file
 * Quickstart: build a two-core TouchDrop server, hit it with one
 * 25 Gbps burst per 10 ms, and compare the DDIO baseline against IDIO.
 *
 * This is the smallest end-to-end use of the public API:
 *   1. fill an ExperimentConfig (paper Table I defaults),
 *   2. pick a policy preset,
 *   3. build a TestSystem, start it, run simulated time,
 *   4. capture its run report: transaction totals and latency.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "ckpt/checkpoint.hh"
#include "harness/run_report.hh"
#include "harness/system.hh"
#include "stats/table.hh"
#include "trace/tracer.hh"

namespace
{

/**
 * Run three burst periods under @p policy. With a checkpoint path the
 * run saves its state to that file at the 10 ms mark and continues;
 * with a restore path it starts from the saved state instead of cold.
 * Either way the totals printed at 30 ms are bit-identical to an
 * uninterrupted run.
 */
harness::RunReport
runPolicy(idio::Policy policy, const std::string &checkpointPath = {},
          const std::string &restorePath = {})
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    cfg.applyPolicy(policy);

    harness::TestSystem system(cfg);
    system.start();

    const sim::Tick duration = 30 * sim::oneMs; // three burst periods
    if (!restorePath.empty()) {
        ckpt::restoreFromFile(restorePath, system.simulation());
        if (system.simulation().now() < duration)
            system.runFor(duration - system.simulation().now());
    } else if (!checkpointPath.empty()) {
        system.runFor(10 * sim::oneMs);
        ckpt::saveToFile(checkpointPath, system.simulation());
        system.runFor(duration - system.simulation().now());
    } else {
        system.runFor(duration);
    }

    return harness::captureReport(system, system.simulation().now());
}

/**
 * Record a packet-lifecycle event trace of a small IDIO burst (one
 * 256-packet burst per NIC, so every event fits in the rings without
 * wraparound and the trace cross-checks exactly against the totals
 * sidecar).
 */
void
tracedRun(const std::string &tracePath)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    cfg.burstPackets = 256;
    cfg.applyPolicy(idio::Policy::Idio);

    harness::TestSystem system(cfg);
    harness::enableTracing(system);
    system.start();
    system.runFor(10 * sim::oneMs); // one burst period
    harness::writeTraceArtifacts(tracePath, system,
                                 system.simulation().now());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // --trace=FILE records a packet-lifecycle event trace of the
    // IDIO run (open FILE in Perfetto / chrome://tracing, or feed it
    // to tools/trace_summary.py). --checkpoint=FILE saves the IDIO
    // run's state at 10 ms (inspect with tools/ckpt_inspect.py);
    // --restore=FILE resumes the IDIO run from such a file and prints
    // the same table an uninterrupted run would.
    std::string tracePath;
    std::string checkpointPath;
    std::string restorePath;
    // An empty path is a usage error, as is --trace in a build that
    // compiled the tracer out: either would silently skip the output.
    auto pathArg = [&](const std::string &arg, const char *flag,
                       std::string &path) {
        const std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) != 0)
            return false;
        path = arg.substr(prefix.size());
        if (path.empty()) {
            std::fprintf(stderr, "%s: %s expects a file path, got ''\n",
                         argv[0], flag);
            std::exit(2);
        }
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (pathArg(arg, "--trace", tracePath)) {
            if (!trace::compiledIn) {
                std::fprintf(stderr,
                             "%s: --trace needs the packet tracer, "
                             "which this build compiled out (configure "
                             "with -DIDIO_TRACE=ON)\n", argv[0]);
                return 2;
            }
        } else if (!pathArg(arg, "--checkpoint", checkpointPath) &&
                   !pathArg(arg, "--restore", restorePath)) {
            std::fprintf(stderr,
                         "usage: %s [--trace=FILE] "
                         "[--checkpoint=FILE] [--restore=FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("IDIO quickstart: 2x TouchDrop, 1024-entry rings, "
                "1514 B packets, 25 Gbps bursts\n\n");

    const harness::RunReport ddio = runPolicy(idio::Policy::Ddio);
    const harness::RunReport idioRun =
        runPolicy(idio::Policy::Idio, checkpointPath, restorePath);
    if (!checkpointPath.empty())
        std::printf("checkpoint written to %s\n\n",
                    checkpointPath.c_str());

    stats::TablePrinter table({"metric", "DDIO", "IDIO", "change"});
    auto row = [&](const char *name, double base, double ours) {
        const double change =
            base > 0 ? (ours - base) / base * 100.0 : 0.0;
        table.addRow({name, stats::TablePrinter::num(base, 0),
                      stats::TablePrinter::num(ours, 0),
                      stats::TablePrinter::num(change, 1) + "%"});
    };

    row("MLC writebacks", double(ddio.totals.mlcWritebacks),
        double(idioRun.totals.mlcWritebacks));
    row("LLC writebacks", double(ddio.totals.llcWritebacks),
        double(idioRun.totals.llcWritebacks));
    row("DRAM reads", double(ddio.totals.dramReads),
        double(idioRun.totals.dramReads));
    row("DRAM writes", double(ddio.totals.dramWrites),
        double(idioRun.totals.dramWrites));
    row("packets processed", double(ddio.totals.processedPackets),
        double(idioRun.totals.processedPackets));
    row("p50 latency (us)", sim::ticksToUs(ddio.p50),
        sim::ticksToUs(idioRun.p50));
    row("p99 latency (us)", sim::ticksToUs(ddio.p99),
        sim::ticksToUs(idioRun.p99));

    table.print(std::cout);
    if (!tracePath.empty()) {
        tracedRun(tracePath);
        std::printf("\ntrace written to %s (+ .totals.json "
                    "sidecar)\n", tracePath.c_str());
    }
    return 0;
}
