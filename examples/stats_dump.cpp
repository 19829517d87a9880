/**
 * @file
 * Run one configurable experiment and dump every statistic in the
 * registry — the "perf stat" of the simulator. Useful for exploring
 * where transactions go under different policies.
 *
 * Usage: stats_dump [policy] [rateGbps] [ring] [durationMs] [traffic]
 *                   [--json]
 *   policy:   ddio | invalidate | prefetch | static | idio  (default idio)
 *   traffic:  bursty | steady | poisson                     (default bursty)
 *   --json:   emit the registry as JSON instead of text
 *
 * A malformed or extra positional argument exits 2, naming it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <iostream>

#include "harness/system.hh"
#include "stats/json.hh"

namespace
{

/** Report positional argument @p index (1-based) and exit 2. */
[[noreturn]] void
badArgument(int index, const char *expected, const char *value)
{
    std::fprintf(stderr, "stats_dump: argument %d must be %s, got '%s'\n",
                 index, expected, value);
    std::exit(2);
}

/** All of @p text as a finite number greater than 0, or exit 2. */
double
positiveNumber(int index, const char *text, const char *expected)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end || !std::isfinite(v) || v <= 0)
        badArgument(index, expected, text);
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            json = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }

    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 25.0;
    double durationMs = 30.0;

    if (argc > 1) {
        const auto policy = idio::tryParsePolicy(argv[1]);
        if (!policy)
            badArgument(1, "ddio|invalidate|prefetch|static|idio",
                        argv[1]);
        cfg.applyPolicy(*policy);
    } else {
        cfg.applyPolicy(idio::Policy::Idio);
    }
    if (argc > 2)
        cfg.rateGbps = positiveNumber(2, argv[2], "a rate in Gbps > 0");
    if (argc > 3) {
        const char *expected = "a ring size (an integer > 0)";
        const double ring = positiveNumber(3, argv[3], expected);
        if (ring != std::floor(ring) || ring > 0xffffffffu)
            badArgument(3, expected, argv[3]);
        cfg.nic.ringSize = static_cast<std::uint32_t>(ring);
    }
    if (argc > 4) {
        const char *expected = "a duration in ms > 0";
        durationMs = positiveNumber(4, argv[4], expected);
        if (durationMs * double(sim::oneMs) >= double(sim::maxTick))
            badArgument(4, "a duration the 64-bit tick clock can hold",
                        argv[4]);
    }
    if (argc > 5) {
        const std::string t = argv[5];
        if (t == "steady")
            cfg.traffic = harness::TrafficKind::Steady;
        else if (t == "poisson")
            cfg.traffic = harness::TrafficKind::Poisson;
        else if (t != "bursty")
            badArgument(5, "bursty|steady|poisson", argv[5]);
    }
    if (argc > 6)
        badArgument(6, "absent (at most 5 positional arguments)",
                    argv[6]);

    if (!json)
        std::printf("# %s\n", cfg.summary().c_str());

    harness::TestSystem system(cfg);
    system.start();
    system.runFor(static_cast<sim::Tick>(durationMs * sim::oneMs));

    if (json) {
        stats::writeJson(std::cout, system.simulation().statsRegistry());
        std::printf("\n");
        return 0;
    }
    system.simulation().statsRegistry().dump(std::cout);

    const auto t = system.totals();
    std::printf("\n# totals: rx=%llu drops=%llu processed=%llu "
                "mlcWB=%llu llcWB=%llu dramRd=%llu dramWr=%llu\n",
                (unsigned long long)t.rxPackets,
                (unsigned long long)t.rxDrops,
                (unsigned long long)t.processedPackets,
                (unsigned long long)t.mlcWritebacks,
                (unsigned long long)t.llcWritebacks,
                (unsigned long long)t.dramReads,
                (unsigned long long)t.dramWrites);
    std::printf("# nf0 latency: p50=%.1fus p99=%.1fus n=%zu\n",
                sim::ticksToUs(system.nf(0).latency.p50()),
                sim::ticksToUs(system.nf(0).latency.p99()),
                system.nf(0).latency.count());
    return 0;
}
