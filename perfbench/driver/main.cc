/**
 * @file
 * The simulator benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--revision TEXT] [--out-dir DIR]
 *
 * Runs repetitions of one workload on the calling thread for S host
 * seconds and checks every repetition's simulated outputs. With
 * --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * alternates untraced and traced repetitions, probes a clone of the
 * first system once, and reports the per-layer ledger. The last line
 * of standard output is the JSON result; every line before it is a
 * human-readable report starting with '#'.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "ledger.hh"
#include "metrics.hh"
#include "stamp.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string revision;
    std::string outDir;
};

[[noreturn]] void
usage(const char *argv0, const std::string &error)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "          [--revision TEXT] [--out-dir DIR]\n",
                 argv0, error.c_str(), argv0);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(argv[0], "missing value for " + arg);
        }
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!(o.seconds > 0.0 && o.seconds <= 600.0))
                usage(argv[0], "--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            o.trace = static_cast<int>(std::strtol(value.c_str(), &end,
                                                   10));
            if (o.trace != 0 && o.trace != 1)
                usage(argv[0], "--trace must be 0 or 1");
        } else if (arg == "--revision") {
            o.revision = value;
        } else if (arg == "--out-dir") {
            o.outDir = value;
        } else {
            usage(argv[0], "unknown option '" + arg + "'");
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage(argv[0], "bad number '" + value + "' for " + arg);
    }
    if (!haveWorkload)
        usage(argv[0], "--workload is required");
    return o;
}

/**
 * Peak resident memory of this address space (VmHWM). Not
 * getrusage(): its ru_maxrss survives exec, so it would include the
 * memory of whatever process forked this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
packets(const RepResult &r)
{
    return static_cast<double>(r.totals.processedPackets);
}

/**
 * The end-to-end metrics of the untraced repetitions. The packet rate
 * is that of the fastest repetition (min-of-N host time): the work is
 * fixed and host interference only ever slows a repetition, so the
 * fastest one is the closest to the simulator's own cost.
 */
std::vector<Metric>
endToEnd(const std::vector<const RepResult *> &reps, double peakRss,
         double &tailPct)
{
    double bestRate = 0.0;
    std::vector<double> setup;
    for (const RepResult *r : reps) {
        bestRate =
            std::max(bestRate, ratio(packets(*r), r->simNs / 1e9));
        setup.push_back(r->setupNs / 1e9);
    }
    const RepResult &first = *reps.front();
    std::vector<std::uint64_t> lat = first.latency;
    std::sort(lat.begin(), lat.end());
    tailPct = tailPercentile(lat.size());
    const double pkts = packets(first);
    const harness::Totals &t = first.totals;
    return {
        {"pkts_per_host_s", "pkt/s", bestRate},
        {"setup_s", "s", median(setup)},
        {"events_per_pkt", "count", ratio(double(first.events), pkts)},
        {"peak_rss_mb", "MB", peakRss},
        {"sim_p50_us", "us", sim::ticksToUs(nearestRank(lat, 50.0))},
        {"sim_tail_us", "us", sim::ticksToUs(nearestRank(lat, tailPct))},
        {"sim_dram_per_pkt", "count",
         ratio(double(t.dramReads + t.dramWrites), pkts)},
        {"sim_delivered_frac", "ratio",
         1.0 - ratio(double(t.rxDrops), double(t.rxPackets))},
    };
}

/** The per-layer ledger of the traced repetitions and the probe. */
std::vector<Metric>
perLayer(const std::vector<Span> &spans,
         const std::vector<const RepResult *> &traced,
         const std::vector<const RepResult *> &untraced,
         const ProbeResult &probe)
{
    const auto self = selfTimes(spans);
    std::vector<double> nsPerEvent, nsPerPkt, build, start, totals,
        tracedWall, untracedWall;
    for (const RepResult *r : traced) {
        double runFor = 0.0;
        for (std::size_t i = r->spanBegin; i < r->spanEnd; ++i) {
            const Span &s = spans[i];
            if (s.name == "runFor")
                runFor += static_cast<double>(self[i]);
            else if (s.name == "construct")
                build.push_back(static_cast<double>(s.duration()) / 1e6);
            else if (s.name == "start")
                start.push_back(static_cast<double>(s.duration()) / 1e6);
            else if (s.name == "totals")
                totals.push_back(static_cast<double>(s.duration()) / 1e3);
        }
        nsPerEvent.push_back(ratio(runFor, r->counters[kEvents]));
        nsPerPkt.push_back(ratio(runFor, r->counters[kProcessed]));
        tracedWall.push_back(r->setupNs + r->simNs);
    }
    for (const RepResult *r : untraced)
        untracedWall.push_back(r->setupNs + r->simNs);

    // Counts are exact and identical in every repetition.
    const Snapshot &c = traced.front()->counters;
    const double pkts = c[kProcessed];
    auto perPkt = [&](double v) { return ratio(v, pkts); };
    const double hostNsPerPkt = median(nsPerPkt);
    const double cacheNsPerPkt =
        probe.pcieWriteNs * perPkt(c[kPcieWrites]) +
        probe.coreReadNs * perPkt(c[kCoreReads]) +
        probe.coreWriteNs * perPkt(c[kCoreWrites]) +
        probe.mlcPrefetchNs * perPkt(c[kPfIssued]) +
        probe.invalidateLineNs * perPkt(c[kCoreInvals]);

    return {
        {"sim.host_ns_per_event", "ns", median(nsPerEvent)},
        {"sim.host_ns_per_pkt", "ns", hostNsPerPkt},
        {"cache.pcie_write_ns", "ns", probe.pcieWriteNs},
        {"cache.core_read_ns", "ns", probe.coreReadNs},
        {"cache.core_write_ns", "ns", probe.coreWriteNs},
        {"cache.mlc_prefetch_ns", "ns", probe.mlcPrefetchNs},
        {"cache.invalidate_line_ns", "ns", probe.invalidateLineNs},
        {"cache.pcie_writes_per_pkt", "count", perPkt(c[kPcieWrites])},
        {"cache.mlc_misses_per_pkt", "count", perPkt(c[kMlcMisses])},
        {"cache.llc_victim_inserts_per_pkt", "count",
         perPkt(c[kLlcVictimInserts])},
        {"cache.dir_lookups_per_pkt", "count", perPkt(c[kDirLookups])},
        {"cache.dir_back_invals_per_pkt", "count",
         perPkt(c[kDirBackInvals])},
        {"cache.host_share_est", "ratio", ratio(cacheNsPerPkt, hostNsPerPkt)},
        {"cpu.accesses_per_pkt", "count",
         perPkt(c[kCoreReads] + c[kCoreWrites])},
        {"nf.empty_poll_ratio", "ratio",
         ratio(c[kEmptyPolls], c[kEmptyPolls] + c[kBatches])},
        {"nic.deliver_ns", "ns", probe.deliverNs},
        {"nic.dma_lines_per_pkt", "count", perPkt(c[kDmaLines])},
        {"idio.hints_per_pkt", "count", perPkt(c[kIdioHints])},
        {"idio.prefetch_useful_ratio", "ratio",
         ratio(c[kPfFills], c[kPfIssued])},
        {"idio.hint_drop_ratio", "ratio",
         ratio(c[kHintsDropped], c[kHintsReceived])},
        {"mem.dram_wait_ns_per_pkt", "ns",
         perPkt(c[kDramQueuedTicks] / double(sim::oneNs))},
        {"dpdk.mbuf_allocs_per_pkt", "count", perPkt(c[kMbufAllocs])},
        {"tenant.reallocations", "count", c[kReallocations]},
        {"harness.build_ms", "ms", median(build)},
        {"harness.start_ms", "ms", median(start)},
        {"harness.totals_us", "us", median(totals)},
        {"ckpt.save_ms", "ms", probe.saveMs},
        {"ckpt.restore_ms", "ms", probe.restoreMs},
        {"ckpt.blob_kb", "KiB", probe.blobKb},
        {"bench.trace_overhead_frac", "ratio",
         ratio(median(tracedWall), median(untracedWall)) - 1.0},
    };
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("# %s\n", title);
    for (const Metric &m : metrics)
        std::printf("#   %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    Workload w;
    if (!makeWorkload(opt.workload, opt.seed, w)) {
        std::string known;
        for (const auto &n : workloadNames())
            known += " " + n;
        usage(argv[0], "unknown workload '" + opt.workload +
                           "' (known:" + known + ")");
    }

    const BuildStamp stamp = buildStamp(opt.revision);
    const ParallelismProbe par = probeParallelism();
    std::printf("# workload %s (seed %llu, %zu systems, %.0f s, "
                "trace %d): %s\n",
                w.name.c_str(), (unsigned long long)opt.seed,
                w.systems.size(), opt.seconds, opt.trace, w.why.c_str());
    std::printf("# build %s\n", stamp.json().c_str());
    std::printf("# parallelism %s\n", par.json().c_str());
    std::fflush(stdout);

    // Repetitions run until the time is up (at least three measured
    // ones), alternating untraced and traced ones when tracing. Each
    // starts on the quietest CPU at that moment.
    SpanRecorder spans(opt.trace == 1);
    std::vector<RepResult> reps;
    std::vector<bool> isTraced;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    const std::size_t minReps = opt.trace ? 4 : 3;
    double firstRepRssMb = 0.0;
    while (reps.size() < minReps || nowNs() < deadline) {
        const bool traced = opt.trace == 1 && reps.size() % 2 == 1;
        RepOptions ro;
        ro.spans = traced ? &spans : nullptr;
        pinToQuietestCpu();
        RepResult r = runRep(w, ro);
        // Latency comes from repetition 0 (the digest proves the rest
        // identical). Peak memory is read after it too: it is what one
        // run of the workload costs, while later repetitions add a few
        // MB of allocator fragmentation at random.
        if (reps.empty())
            firstRepRssMb = peakRssMb();
        else
            std::vector<std::uint64_t>().swap(r.latency);
        reps.push_back(std::move(r));
        isTraced.push_back(traced);
    }
    ProbeResult probe;
    if (opt.trace == 1) {
        RepOptions ro;
        ro.spans = &spans;
        ro.probe = &probe;
        pinToQuietestCpu();
        reps.push_back(runRep(w, ro));
        isTraced.push_back(true);
        if (!probe.done)
            reps.back().errors.push_back("the clone probe did not run");
    }

    // Every repetition must pass its own checks and reproduce the
    // first one's outputs exactly.
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (reps[i].digest != reps[0].digest)
            reps[i].errors.push_back("output digest differs from "
                                     "repetition 0");
        for (const std::string &e : reps[i].errors)
            std::printf("# FAIL rep %zu: %s\n", i, e.c_str());
        failed += reps[i].errors.empty() ? 0 : 1;
    }
    const std::string refusal = stamp.refusal();
    if (!refusal.empty()) {
        std::printf("# REFUSED: %s; every repetition counts as failed\n",
                    refusal.c_str());
        failed = reps.size();
    }

    // The probe repetition, last in a traced run, is paused by the
    // probe and so is not a timing sample.
    std::vector<const RepResult *> untraced, traced;
    for (std::size_t i = 0; i + (opt.trace ? 1 : 0) < reps.size(); ++i)
        (isTraced[i] ? traced : untraced).push_back(&reps[i]);

    double tailPct = 0.0;
    const std::vector<Metric> e2e = endToEnd(untraced, firstRepRssMb, tailPct);
    std::printf("# digest %016llx over %zu repetitions (%zu traced)\n",
                (unsigned long long)reps[0].digest, reps.size(),
                traced.size() + (opt.trace ? 1 : 0));
    std::printf("# packets %llu retired of %llu generated, %llu dropped; "
                "latency samples %zu, tail percentile p%g\n",
                (unsigned long long)reps[0].totals.processedPackets,
                (unsigned long long)reps[0].generated,
                (unsigned long long)reps[0].totals.rxDrops,
                reps[0].latency.size(), tailPct);
    {
        std::vector<double> rate;
        for (const RepResult *r : untraced)
            rate.push_back(ratio(packets(*r), r->simNs / 1e9));
        std::sort(rate.begin(), rate.end());
        const auto q = [&](double f) {
            return rate[static_cast<std::size_t>(
                f * static_cast<double>(rate.size() - 1))];
        };
        std::printf("# pkts_per_host_s over %zu untraced repetitions: "
                    "min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
                    rate.size(), q(0), q(0.25), q(0.5), q(0.75), q(1));
    }
    printTable("end to end (untraced repetitions)", e2e);
    std::printf("#   %-34s %16.6g %s\n", "fail_frac",
                ratio(double(failed), double(reps.size())), "ratio");
    std::printf("#   %-34s %16.6g %s\n", "sim_mlc_wb_per_pkt",
                ratio(double(reps[0].totals.mlcWritebacks),
                      packets(reps[0])),
                "count");
    std::printf("#   %-34s %16.6g %s\n", "sim_drop_frac",
                ratio(double(reps[0].totals.rxDrops),
                      double(reps[0].totals.rxPackets)),
                "ratio");

    std::vector<Metric> result = e2e;
    if (opt.trace == 1) {
        result = perLayer(spans.spans(), traced, untraced, probe);
        printTable("per layer (traced repetitions and clone probe)",
                   result);
    }

    // Raw samples for whoever wants to re-derive the figures: every
    // repetition's timings, and the spans of a traced run.
    if (!opt.outDir.empty()) {
        std::filesystem::create_directories(opt.outDir);
        const std::string stem = opt.outDir + "/" + w.name +
                                 (opt.trace ? "-traced" : "");
        std::ofstream os(stem + ".reps.json");
        os << "{\"seed\": " << opt.seed << ", \"reps\": [\n";
        for (std::size_t i = 0; i < reps.size(); ++i)
            os << "  {\"traced\": " << (isTraced[i] ? 1 : 0)
               << ", \"setup_ns\": " << formatNumber(reps[i].setupNs)
               << ", \"sim_ns\": " << formatNumber(reps[i].simNs)               << ", \"packets\": " << reps[i].totals.processedPackets
               << "}" << (i + 1 < reps.size() ? ",\n" : "\n");
        os << "]}\n";
        if (opt.trace == 1) {
            std::ofstream spansOs(stem + ".spans.json");
            spans.writeJson(spansOs, counterNames());
        }
        std::printf("# samples written to %s.*.json\n", stem.c_str());
    }
    for (const Metric &m : result) {
        if (!validMetricName(m.name) || !validUnit(m.unit)) {
            std::fprintf(stderr, "invalid metric '%s' [%s]\n",
                         m.name.c_str(), m.unit.c_str());
            return 1;
        }
    }

    std::printf("%s\n", resultLine(failed == 0, reps.size(), failed,
                                   result)
                            .c_str());
    return 0;
}
