/**
 * @file
 * Reproduces paper Figure 5: MLC and LLC writeback timeline while
 * processing bursty traffic with the DDIO baseline.
 *
 * Two TouchDrop processes, 3 MB LLC (2 cores x 1.5 MB), 1024-entry
 * rings, 1514 B packets, bursts every 10 ms. The top of the paper's
 * figure shows 30 ms; the bottom zooms into the second burst. We
 * print the 10 us-sampled MTPS series for the zoom window and summary
 * statistics for all three bursts, and emit the full CSV when a path
 * is given as argv[1].
 *
 * Expected shape: writebacks concentrate in two phases per burst —
 * LLC writebacks during the DMA phase (DMA leak) and MLC writebacks
 * during the execution phase (dead-buffer evictions) — with LLC
 * writebacks tapering off late in the burst (DMA bloating).
 */

#include <fstream>
#include <iostream>

#include "common.hh"

int
main(int argc, char **argv)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.applyPolicy(idio::Policy::Ddio);

    std::printf("=== Figure 5: MLC/LLC writebacks under bursty "
                "traffic (DDIO) ===\n");
    bench::printConfigEcho(cfg);

    harness::TestSystem sys(cfg);
    sys.trackDefaultSeries();
    sys.timeline().start();
    sys.start();
    sys.runFor(30 * sim::oneMs);

    const auto &mlc = sys.timeline().series("mlcWB");
    const auto &llc = sys.timeline().series("llcWB");
    const auto &dma = sys.timeline().series("dmaWrites");

    // Per-burst summaries (bursts start near 0, 10 ms, 20 ms).
    stats::TablePrinter bursts({"burst", "window", "peak mlcWB MTPS",
                                "peak llcWB MTPS", "mlcWB txns",
                                "llcWB txns"});
    for (int b = 0; b < 3; ++b) {
        const sim::Tick lo = sim::Tick(b) * 10 * sim::oneMs;
        const sim::Tick hi = lo + 10 * sim::oneMs;
        double peakMlc = 0, peakLlc = 0, sumMlc = 0, sumLlc = 0;
        for (const auto &p : mlc.points()) {
            if (p.when > lo && p.when <= hi) {
                peakMlc = std::max(peakMlc, p.value);
                sumMlc += p.value;
            }
        }
        for (const auto &p : llc.points()) {
            if (p.when > lo && p.when <= hi) {
                peakLlc = std::max(peakLlc, p.value);
                sumLlc += p.value;
            }
        }
        const double toTxns = sim::ticksToSeconds(10 * sim::oneUs) *
                              1e6; // MTPS -> txns per sample
        std::string label = "#"; // not "#" + ...: GCC 12 -Wrestrict
        label += std::to_string(b + 1);
        bursts.addRow({label,
                       std::to_string(10 * b) + "-" +
                           std::to_string(10 * (b + 1)) + "ms",
                       stats::TablePrinter::num(peakMlc, 1),
                       stats::TablePrinter::num(peakLlc, 1),
                       stats::TablePrinter::num(sumMlc * toTxns, 0),
                       stats::TablePrinter::num(sumLlc * toTxns, 0)});
    }
    bursts.print(std::cout);

    // Zoom into the second burst (paper bottom panel): 10.0-11.5 ms.
    std::printf("\nSecond-burst zoom (10 us samples, MTPS):\n");
    stats::TablePrinter zoom(
        {"t (ms)", "dmaWrites", "mlcWB", "llcWB"});
    for (std::size_t i = 0; i < mlc.size(); ++i) {
        const sim::Tick when = mlc.points()[i].when;
        if (when < 10 * sim::oneMs || when > 115 * sim::oneMs / 10)
            continue;
        if ((i % 5) != 0)
            continue; // print every 50 us to keep the table readable
        zoom.addRow({stats::TablePrinter::num(
                         sim::ticksToSeconds(when) * 1e3, 2),
                     stats::TablePrinter::num(dma.points()[i].value, 1),
                     stats::TablePrinter::num(mlc.points()[i].value, 1),
                     stats::TablePrinter::num(llc.points()[i].value,
                                              1)});
    }
    zoom.print(std::cout);

    if (argc > 1) {
        std::ofstream csv(argv[1]);
        stats::writeCsv(csv, sys.timeline().all());
        std::printf("\nfull timeline CSV written to %s\n", argv[1]);
    }

    std::printf("\nShape check vs. paper: per burst, an LLC-WB spike "
                "in the DMA phase, MLC WBs through the execution "
                "phase, LLC WBs tapering off towards the end.\n");
    return 0;
}
