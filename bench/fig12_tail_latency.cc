/**
 * @file
 * Reproduces paper Figure 12: 50th and 99th percentile per-packet
 * latency of TouchDrop (1514 B, ring 1024) under DDIO and IDIO,
 * running solo and co-running with LLCAntagonist, at 100/25/10 Gbps
 * burst rates. All values normalised to the DDIO solo run at the
 * same rate.
 *
 * Paper reference points: IDIO reduces p99 by 7.9%/30.5%/10.9%
 * (solo) and 6.1%/32.0%/8.2% (co-run) at 100/25/10 Gbps.
 */

#include <iostream>

#include "common.hh"

namespace
{

harness::ExperimentConfig
fig12Config(idio::Policy policy, double gbps, bool antagonist)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
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

    std::printf("=== Figure 12: p50/p99 latency, normalised to DDIO "
                "solo ===\n");
    bench::printConfigEcho(bench::withCaseOptions(
        fig12Config(idio::Policy::Ddio, 25.0, false), opts));

    const auto rates = {100.0, 25.0, 10.0};

    std::vector<bench::SweepCase> cases;
    for (double gbps : rates) {
        for (bool antagonist : {false, true}) {
            for (auto policy :
                 {idio::Policy::Ddio, idio::Policy::Idio}) {
                cases.push_back(
                    {stats::TablePrinter::num(gbps, 0) + "G " +
                         (antagonist ? "co-run " : "solo ") +
                         idio::policyName(policy),
                     fig12Config(policy, gbps, antagonist)});
            }
        }
    }

    bench::applyCaseOptions(cases, opts);
    // Four burst periods; NF 0's distribution represents both NFs.
    const auto results = bench::runSweep(cases, opts, bench::runToHorizon,
                                         {.horizon = 40 * sim::oneMs});
    bench::maybeWriteJson(opts, "fig12", cases, results);

    stats::TablePrinter table({"rate", "scenario", "config",
                               "p50 (norm)", "p99 (norm)", "p50 us",
                               "p99 us"});

    std::size_t i = 0;
    for (double gbps : rates) {
        const auto &base = results[i]; // DDIO solo of this rate
        for (bool antagonist : {false, true}) {
            for (auto policy :
                 {idio::Policy::Ddio, idio::Policy::Idio}) {
                const auto &m = results[i++];
                if (policy == idio::Policy::Ddio && !antagonist) {
                    table.addRow(
                        {stats::TablePrinter::num(gbps, 0) + "G",
                         "solo", "DDIO", "1.00", "1.00",
                         stats::TablePrinter::num(
                             sim::ticksToUs(base.p50), 1),
                         stats::TablePrinter::num(
                             sim::ticksToUs(base.p99), 1)});
                    continue;
                }
                table.addRow(
                    {stats::TablePrinter::num(gbps, 0) + "G",
                     antagonist ? "co-run" : "solo",
                     idio::policyName(policy),
                     bench::ratio(m.p50, base.p50),
                     bench::ratio(m.p99, base.p99),
                     stats::TablePrinter::num(sim::ticksToUs(m.p50),
                                              1),
                     stats::TablePrinter::num(sim::ticksToUs(m.p99),
                                              1)});
            }
        }
    }

    table.print(std::cout);
    std::printf("\nShape check vs. paper: IDIO p99 < DDIO p99 in "
                "every scenario, with the largest reduction at "
                "25 Gbps; co-running inflates DDIO's tail more than "
                "IDIO's.\n");
    bench::maybeTraceRun(opts, cases.front().cfg);

    return 0;
}
