/**
 * @file
 * Ablation: number of DDIO ways.
 *
 * The paper's premise (Sec. I) is that the DDIO way partition (2 of
 * 11 ways on Skylake) is precious shared space: giving DMA more ways
 * absorbs bursts but steals LLC from applications. This sweep
 * quantifies that trade-off on our model: DMA leak (LLC writebacks
 * during the burst) vs. the co-running antagonist's memory
 * performance, for the DDIO baseline and for IDIO (which should make
 * the system largely insensitive to the partition size).
 */

#include <iostream>

#include "common.hh"

namespace
{

harness::ExperimentConfig
config(idio::Policy policy, std::uint32_t ddioWays)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.withAntagonist = true;
    cfg.hier.ddioWays = ddioWays;
    cfg.applyPolicy(policy);
    return cfg;
}

} // anonymous namespace

int
main()
{
    std::printf("=== Ablation: DDIO way count (100 Gbps bursts, "
                "co-running LLCAntagonist) ===\n");
    bench::printConfigEcho(config(idio::Policy::Ddio, 2));

    stats::TablePrinter table({"ddioWays", "config", "llcWB",
                               "dramWr", "exec ms", "antag ns/access"});
    for (std::uint32_t ways : {1u, 2u, 4u, 6u, 8u}) {
        for (auto policy : {idio::Policy::Ddio, idio::Policy::Idio}) {
            const auto m = bench::runSingleBurst(config(policy, ways));
            table.addRow(
                {std::to_string(ways), idio::policyName(policy),
                 std::to_string(m.totals.llcWritebacks),
                 std::to_string(m.totals.dramWrites),
                 stats::TablePrinter::num(
                     sim::ticksToSeconds(m.execTime) * 1e3, 3),
                 stats::TablePrinter::num(
                     m.antagonistTpa / double(sim::oneNs), 2)});
        }
    }
    table.print(std::cout);

    std::printf("\nShape check: DDIO's DMA leak shrinks with more "
                "ways while the antagonist suffers more LLC loss; "
                "IDIO's numbers stay roughly flat across the sweep "
                "(the MLC absorbs inbound data instead).\n");
    return 0;
}
