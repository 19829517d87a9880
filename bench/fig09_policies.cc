/**
 * @file
 * Reproduces paper Figure 9: MLC/LLC writeback behaviour of the five
 * configurations (DDIO, Invalidate, Prefetch, Static, IDIO) while
 * processing one burst at 100 Gbps and 25 Gbps.
 *
 * The paper plots 10 us-sampled rate timelines per configuration; we
 * report, for each configuration and rate, the totals over the burst,
 * the peak rates, and the burst processing time, which together
 * capture the figure's content. Full CSV timelines can be produced
 * via bench/fig05-style instrumentation if desired.
 *
 * Expected shape (paper Sec. VII):
 *   - Invalidate: MLC WBs ~eliminated at all rates;
 *   - Prefetch: execution phase shortened, LLC pressure reduced, but
 *     MLC WBs remain (no invalidation);
 *   - Static == IDIO at 25 Gbps;
 *   - IDIO regulates the MLC WB rate below Static's at 100 Gbps.
 */

#include <iostream>

#include "common.hh"

namespace
{

harness::ExperimentConfig
fig9Config(idio::Policy policy, double gbps)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = gbps;
    cfg.applyPolicy(policy);
    return cfg;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchOptions(argc, argv, bench::sweepFlags);

    std::printf("=== Figure 9: policy comparison over one burst "
                "(2x TouchDrop, ring 1024, 1514 B) ===\n");
    bench::printConfigEcho(
        bench::withCaseOptions(fig9Config(idio::Policy::Ddio, 100.0), opts));

    const auto policies = {
        idio::Policy::Ddio, idio::Policy::InvalidateOnly,
        idio::Policy::PrefetchOnly, idio::Policy::Static,
        idio::Policy::Idio};
    const auto rates = {100.0, 25.0};

    std::vector<bench::SweepCase> cases;
    for (double gbps : rates) {
        for (auto policy : policies) {
            cases.push_back({std::string(idio::policyName(policy)) +
                                 " " + stats::TablePrinter::num(gbps, 0)
                                 + "G",
                             fig9Config(policy, gbps)});
        }
    }

    bench::applyCaseOptions(cases, opts);
    const auto results = bench::runSweep(cases, opts);
    bench::maybeWriteJson(opts, "fig09", cases, results);

    std::size_t i = 0;
    for (double gbps : rates) {
        std::printf("--- burst rate %.0f Gbps ---\n", gbps);
        stats::TablePrinter table({"config", "mlcWB", "llcWB",
                                   "dramRd", "dramWr", "exec ms",
                                   "p99 us"});
        for (auto policy : policies) {
            const auto &m = results[i++];
            table.addRow(
                {idio::policyName(policy),
                 std::to_string(m.totals.mlcWritebacks),
                 std::to_string(m.totals.llcWritebacks),
                 std::to_string(m.totals.dramReads),
                 std::to_string(m.totals.dramWrites),
                 stats::TablePrinter::num(
                     sim::ticksToSeconds(m.execTime) * 1e3, 3),
                 stats::TablePrinter::num(sim::ticksToUs(m.p99), 1)});
        }
        table.print(std::cout);
        std::printf("\n");
    }

    std::printf("Shape check vs. paper: Invalidate rows ~zero mlcWB; "
                "Prefetch rows lower llcWB but high mlcWB; Static == "
                "IDIO at 25 Gbps; IDIO < Static mlcWB at 100 Gbps.\n");
    bench::maybeTraceRun(opts, cases.front().cfg);

    return 0;
}
