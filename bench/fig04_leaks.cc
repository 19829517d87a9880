/**
 * @file
 * Reproduces paper Figure 4: MLC and DRAM leaks at various load
 * levels and DMA ring buffer sizes.
 *
 * 10 TouchDrop instances receive steady traffic at low (8 Mbps),
 * medium (1 Gbps), and high (20 Gbps) per-NF rates with ring sizes 64,
 * 1024, and 2048. Reported, as in the paper:
 *   - MLC writeback rate normalised to RX network bandwidth,
 *   - MLC invalidation (by PCIe writes) rate normalised to RX BW,
 *   - DRAM read/write bandwidth (GB/s),
 * plus the `*_1way` configurations (all NF cores restricted to a
 * single LLC way via CAT-style masks) that expose DMA bloating.
 *
 * Expected shape (paper Sec. III):
 *   - ring 64: low normalised MLC WB, high MLC invalidation rate;
 *   - ring 1024/2048: MLC WB rate >~ 1x RX BW at every load level;
 *   - negligible LLC writebacks in unrestricted runs (DMA bloating
 *     absorbs the buffers in the large aggregate cache space);
 *   - `*_1way` at high load: much larger DRAM write bandwidth.
 */

#include <iostream>

#include "common.hh"

namespace
{

struct Load
{
    const char *name;
    double gbps; // per NF
    sim::Tick duration;
    double idlePollGapNs;
};

harness::ExperimentConfig
fig4Config(std::uint32_t ring, const Load &load, bool oneWay)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 10;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Steady;
    cfg.rateGbps = load.gbps;
    cfg.nic.ringSize = ring;
    cfg.applyPolicy(idio::Policy::Ddio);

    // Fig. 4 reproduces the paper's *physical* Xeon Gold measurements
    // (Sec. III), not the gem5 setup: real cores sustain 20 Gbps of
    // MTU TouchDrop easily and the chip has a ~22 MB LLC. Calibrate
    // the core model up and size the LLC accordingly (2.25 MB/core
    // x 10 cores = 22.5 MB).
    cfg.nf.perLineCostNs = 2.0;
    cfg.nf.perPacketCostNs = 50.0;
    cfg.nf.idlePollGapNs = load.idlePollGapNs;
    cfg.hier.llcPerCore.sizeBytes = 2359296; // 2.25 MB

    if (oneWay) {
        // Pin every NF core's CPU-side LLC allocations to one way.
        cfg.hier.llcAllocMask.assign(cfg.numNfs, 0b100);
    }
    return cfg;
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 4: MLC and DRAM leaks vs. load and ring "
                "size (10x TouchDrop, DDIO baseline) ===\n");
    bench::printConfigEcho(
        fig4Config(1024, {"high", 20.0, 0, 100.0}, false));

    // The paper's low level is 8 Mbps; a full FIFO cycle of the
    // 1024-buffer pool at 8 Mbps needs seconds of simulated time, so
    // we use 100 Mbps — equally "low" (<1% utilisation) with the same
    // steady-state recycling behaviour.
    const Load loads[] = {
        {"low(100Mbps)", 0.1, 500 * sim::oneMs, 1000.0},
        {"med(1Gbps)", 1.0, 60 * sim::oneMs, 1000.0},
        {"high(20Gbps)", 20.0, 8 * sim::oneMs, 100.0},
    };
    const std::uint32_t rings[] = {64, 1024, 2048};

    stats::TablePrinter table({"config", "load", "mlcWB/rxBW",
                               "mlcInval/rxBW", "dramRd GB/s",
                               "dramWr GB/s", "llcWB/rxBW"});

    auto addRow = [&](const std::string &name, const Load &load,
                      std::uint32_t ring, bool oneWay) {
        const auto cfg = fig4Config(ring, load, oneWay);
        const auto m = bench::runToHorizon(cfg, {.horizon = load.duration});

        const double rxBytes =
            std::max(1.0, static_cast<double>(m.totals.rxPackets -
                                              m.totals.rxDrops) *
                              1514.0);
        const double secs = sim::ticksToSeconds(load.duration);
        auto norm = [&](std::uint64_t transactions) {
            return stats::TablePrinter::num(
                static_cast<double>(transactions) * 64.0 / rxBytes, 2);
        };

        table.addRow(
            {name, load.name, norm(m.totals.mlcWritebacks),
             norm(m.totals.mlcPcieInvals),
             stats::TablePrinter::num(
                 double(m.totals.dramReads) * 64.0 / secs / 1e9, 2),
             stats::TablePrinter::num(
                 double(m.totals.dramWrites) * 64.0 / secs / 1e9, 2),
             norm(m.totals.llcWritebacks)});
    };

    for (auto ring : rings) {
        const std::string name = "ring" + std::to_string(ring);
        for (const auto &load : loads)
            addRow(name, load, ring, false);
    }
    // DMA-bloating exposure: 1-way CAT masks at high load.
    for (auto ring : {1024u, 2048u}) {
        addRow("ring" + std::to_string(ring) + "_1way", loads[2], ring,
               true);
    }

    table.print(std::cout);
    std::printf("\nShape check vs. paper: ring64 rows should show low "
                "mlcWB and high mlcInval; ring1024/2048 rows mlcWB "
                ">~1x at every load; *_1way rows much higher DRAM "
                "write bandwidth.\n");
    return 0;
}
