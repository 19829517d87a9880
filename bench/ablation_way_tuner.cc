/**
 * @file
 * Comparator: IAT-style dynamic DDIO way allocation vs. IDIO.
 *
 * The paper's related-work section argues that dynamic-DDIO policies
 * (IAT, reference [41]) help with LLC contention but "still suffer
 * from the penalty of a high MLC writeback rate" because they cannot
 * steer data into the MLC or drop dead buffers. This bench runs the
 * DDIO baseline, DDIO + the IAT-style way tuner, and IDIO under
 * bursty traffic with a co-running LLCAntagonist.
 *
 * Expected shape: the tuner reduces DDIO's DMA leak (LLC WBs) by
 * growing the partition during bursts, but the MLC writebacks are
 * untouched; IDIO beats it on both axes.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "idio/way_tuner.hh"

namespace
{

harness::ExperimentConfig
config(idio::Policy policy)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.withAntagonist = true;
    cfg.applyPolicy(policy);
    return cfg;
}

struct Row
{
    harness::Totals totals;
    double antagTpa;
    std::uint32_t finalWays;
};

Row
run(idio::Policy policy, bool withTuner)
{
    harness::TestSystem sys(config(policy));
    std::unique_ptr<idio::DdioWayTuner> tuner;
    if (withTuner) {
        // Fast re-evaluation so the tuner can react within the
        // ~124 us burst.
        idio::WayTunerConfig tcfg;
        tcfg.interval = 10 * sim::oneUs;
        tuner = std::make_unique<idio::DdioWayTuner>(
            sys.simulation(), "system.wayTuner", sys.hierarchy(),
            tcfg);
        tuner->start();
    }
    sys.start();
    sys.runFor(30 * sim::oneMs);

    Row r;
    r.totals = sys.totals();
    r.antagTpa = sys.antagonists().front()->ticksPerAccess();
    r.finalWays = sys.hierarchy().llc().ddioWays();
    return r;
}

} // anonymous namespace

int
main()
{
    std::printf("=== Comparator: IAT-style dynamic DDIO ways vs IDIO "
                "(100 Gbps bursts + LLCAntagonist) ===\n");
    bench::printConfigEcho(config(idio::Policy::Ddio));

    stats::TablePrinter table({"config", "nfMlcWB", "llcWB", "dramWr",
                               "antag ns/access", "final ddioWays"});
    auto add = [&](const char *name, const Row &r) {
        table.addRow({name, std::to_string(r.totals.nfMlcWritebacks),
                      std::to_string(r.totals.llcWritebacks),
                      std::to_string(r.totals.dramWrites),
                      stats::TablePrinter::num(
                          r.antagTpa / double(sim::oneNs), 2),
                      std::to_string(r.finalWays)});
    };

    add("DDIO", run(idio::Policy::Ddio, false));
    add("DDIO+IAT", run(idio::Policy::Ddio, true));
    add("IDIO", run(idio::Policy::Idio, false));

    table.print(std::cout);
    std::printf("\nShape check (paper Sec. VIII): the way tuner cuts "
                "DDIO's DMA leak but leaves the MLC writeback rate "
                "untouched; IDIO reduces both and keeps the "
                "antagonist faster.\n");
    return 0;
}
