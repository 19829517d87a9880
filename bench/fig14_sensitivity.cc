/**
 * @file
 * Reproduces paper Figure 14: sensitivity of IDIO to the mlcTHR
 * threshold, sweeping 10..100 MTPS at the 100 Gbps burst rate (the
 * rate where sensitivity is largest).
 *
 * Expected shape: IDIO's improvements over DDIO hold across the whole
 * sweep — the mechanism is not brittle in its only tunable.
 */

#include <iostream>

#include "common.hh"

namespace
{

harness::ExperimentConfig
fig14Config(idio::Policy policy, double mlcThr)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.applyPolicy(policy);
    cfg.idio.mlcThrMtps = mlcThr;
    return cfg;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchOptions(
        argc, argv, bench::sweepFlags | bench::flagWarmStart);
    if (opts.warmStart &&
        !(opts.checkpointPath.empty() && opts.restorePath.empty())) {
        std::fprintf(stderr, "%s: --warm-start forks from its own "
                     "warm-up and takes no %s (try --help)\n", argv[0],
                     opts.restorePath.empty() ? "--checkpoint"
                                              : "--restore");
        return 2;
    }

    std::printf("=== Figure 14: IDIO sensitivity to mlcTHR "
                "(100 Gbps bursts) ===\n");
    bench::printConfigEcho(bench::withCaseOptions(
        fig14Config(idio::Policy::Idio, 50.0), opts));

    // Case 0 is the DDIO baseline; the rest sweep the threshold.
    std::vector<bench::SweepCase> cases;
    cases.push_back({"ddio", fig14Config(idio::Policy::Ddio, 50.0)});
    const auto thresholds = {10.0, 25.0, 50.0, 75.0, 100.0};
    for (double thr : thresholds) {
        cases.push_back({"idio thr=" + stats::TablePrinter::num(thr, 0),
                         fig14Config(idio::Policy::Idio, thr)});
    }

    bench::applyCaseOptions(cases, opts);
    std::vector<harness::RunReport> results;
    if (opts.warmStart) {
        // The thr family shares one warm-up: the threshold only
        // matters once the measured writeback rate falls between two
        // swept values, which happens well after the burst head — so
        // every fork is bit-identical to its cold run. The first thr
        // case runs cold and saves its state at the warm-start tick;
        // the DDIO baseline is a different policy and runs cold too.
        std::printf("# warm-start: thr family forked from one "
                    "%llu us warm-up\n\n",
                    (unsigned long long)sim::ticksToUs(
                        bench::warmStartTick));
        std::vector<std::uint8_t> warm;
        results.push_back(bench::runSingleBurst(cases[0].cfg));
        results.push_back(
            bench::runSingleBurst(cases[1].cfg, {.saveBlob = &warm}));
        const std::vector<bench::SweepCase> forkCases(
            cases.begin() + 2, cases.end());
        const auto forked =
            bench::runSweep(forkCases, opts, bench::runSingleBurst,
                            {.restoreBlob = &warm});
        results.insert(results.end(), forked.begin(), forked.end());
    } else {
        results = bench::runSweep(cases, opts);
    }
    bench::maybeWriteJson(opts, "fig14", cases, results);

    const auto &base = results[0];

    stats::TablePrinter table({"mlcTHR (MTPS)", "mlcWB", "llcWB",
                               "dramRd", "dramWr", "exeTime"});
    std::size_t i = 1;
    for (double thr : thresholds) {
        const auto &m = results[i++];
        table.addRow({stats::TablePrinter::num(thr, 0),
                      bench::ratio(m.totals.mlcWritebacks,
                                   base.totals.mlcWritebacks),
                      bench::ratio(m.totals.llcWritebacks,
                                   base.totals.llcWritebacks),
                      bench::ratio(m.totals.dramReads,
                                   base.totals.dramReads),
                      bench::ratio(m.totals.dramWrites,
                                   base.totals.dramWrites),
                      bench::ratio(m.execTime, base.execTime)});
    }
    table.print(std::cout);

    std::printf("\nAll values normalised to DDIO at the same rate. "
                "Shape check vs. paper: every column stays below 1.0 "
                "and varies only mildly across the sweep.\n");
    bench::maybeTraceRun(opts, cases.front().cfg);

    return 0;
}
