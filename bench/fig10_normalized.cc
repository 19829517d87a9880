/**
 * @file
 * Reproduces paper Figure 10: MLC writebacks, LLC writebacks, DRAM
 * reads, DRAM writes, and burst processing time (Exe Time) of Static
 * and dynamic IDIO, normalised to the DDIO baseline, at 100/25/10
 * Gbps burst rates — plus the co-running scenario with LLCAntagonist.
 *
 * Paper reference points: MLC WB reductions of 73.9% (100G), 83.7%
 * (25G), 63.8% (10G); DRAM write bandwidth almost eliminated; Exe
 * Time improvements of 18.5% (100G) and 22.0% (25G); co-run burst
 * processing improvements of 10.9%/20.8% and antagonist CPI
 * improvements of ~16-22%.
 */

#include <iostream>

#include "common.hh"

namespace
{

harness::ExperimentConfig
fig10Config(idio::Policy policy, double gbps, bool antagonist)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = gbps;
    cfg.withAntagonist = antagonist;
    cfg.applyPolicy(policy);
    return cfg;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchOptions(argc, argv, bench::sweepFlags);

    std::printf("=== Figure 10: Static and IDIO normalised to DDIO "
                "===\n");
    bench::printConfigEcho(bench::withCaseOptions(
        fig10Config(idio::Policy::Ddio, 100.0, false), opts));

    // One scenario = a DDIO baseline plus the two IDIO variants; all
    // 18 runs are independent and sweep in parallel.
    struct Scenario
    {
        const char *name;
        bool antagonist;
        double gbps;
    };
    const std::vector<Scenario> scenarios = {
        {"solo", false, 100.0},   {"solo", false, 25.0},
        {"solo", false, 10.0},    {"co-run", true, 100.0},
        {"co-run", true, 25.0},   {"co-run", true, 10.0}};
    const auto policies = {idio::Policy::Ddio, idio::Policy::Static,
                           idio::Policy::Idio};

    std::vector<bench::SweepCase> cases;
    for (const auto &sc : scenarios) {
        for (auto policy : policies) {
            cases.push_back(
                {std::string(sc.name) + " " +
                     stats::TablePrinter::num(sc.gbps, 0) + "G " +
                     idio::policyName(policy),
                 fig10Config(policy, sc.gbps, sc.antagonist)});
        }
    }

    bench::applyCaseOptions(cases, opts);
    const auto results = bench::runSweep(cases, opts);
    bench::maybeWriteJson(opts, "fig10", cases, results);

    stats::TablePrinter table({"scenario", "config", "nfMlcWB", "llcWB",
                               "dramRd", "dramWr", "exeTime",
                               "antagCPI"});

    std::size_t i = 0;
    for (const auto &sc : scenarios) {
        const auto &base = results[i++]; // DDIO row of this scenario
        for (auto policy : {idio::Policy::Static, idio::Policy::Idio}) {
            const auto &m = results[i++];
            table.addRow(
                {std::string(sc.name) + " " +
                     stats::TablePrinter::num(sc.gbps, 0) + "G",
                 idio::policyName(policy),
                 bench::ratio(m.totals.nfMlcWritebacks,
                              base.totals.nfMlcWritebacks),
                 bench::ratio(m.totals.llcWritebacks,
                              base.totals.llcWritebacks),
                 bench::ratio(m.totals.dramReads,
                              base.totals.dramReads),
                 bench::ratio(m.totals.dramWrites,
                              base.totals.dramWrites),
                 bench::ratio(m.execTime, base.execTime),
                 sc.antagonist
                     ? stats::TablePrinter::num(
                           m.antagonistTpa / base.antagonistTpa, 2)
                     : "-"});
        }
    }

    table.print(std::cout);

    std::printf(
        "\nAll values are ratios vs. the DDIO baseline of the same "
        "scenario (lower is better; paper Fig. 10).\n"
        "Shape check: mlcWB <=0.4 at 100/25G; dramWr ~0 at 25G; "
        "exeTime <1 at 100/25G; antagCPI <1 in co-run rows.\n");
    bench::maybeTraceRun(opts, cases.front().cfg);

    return 0;
}
