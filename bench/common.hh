/**
 * @file
 * Shared machinery for the figure-reproduction benches.
 *
 * Every bench binary prints the series/rows of one paper table or
 * figure. The helpers here run a single-burst experiment and extract
 * the metrics the paper reports: transaction totals, burst processing
 * time (first DMA until the NFs drain), percentile latencies, and
 * 10 us rate timelines.
 */

#ifndef IDIO_BENCH_COMMON_HH
#define IDIO_BENCH_COMMON_HH

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/trace_artifacts.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "trace/tracer.hh"

namespace bench
{

/**
 * Command-line options shared by every figure bench.
 *
 *   --jobs=N    run the config sweep on N threads (0 = all host
 *               hardware threads). Results are collected in config
 *               order and are bit-identical to a serial run.
 *   --json=FILE additionally write every measured row to FILE as JSON
 *               for plotting scripts and CI trend tracking.
 *   --trace=FILE record a packet-lifecycle event trace of the FIRST
 *               sweep case (re-run serially after the sweep) as
 *               Chrome trace-event JSON for Perfetto, plus a
 *               FILE.totals.json sidecar with the run's
 *               harness::Totals for tools/trace_summary.py
 *               cross-checking.
 *   --seed=N    override ExperimentConfig::seed for every sweep case.
 *               The seed is recorded in checkpoint headers; restoring
 *               under a different seed is fatal.
 *   --checkpoint=FILE during the FIRST sweep case, save a checkpoint
 *               at the 20 us mark (plus a FILE.meta sidecar with the
 *               measurement-loop state). The measured results are
 *               unchanged — saving only reads simulator state.
 *   --restore=FILE start the FIRST sweep case from FILE instead of
 *               cold; the rest of the run is bit-identical to the
 *               uninterrupted one.
 *   --warm-start (benches that support it) run the shared warm-up
 *               once, checkpoint in memory and fork each sweep case
 *               from the restored state.
 *   --cores=N   scale every case to an N-core socket (N NF cores and,
 *               unless --rx-queues says otherwise, N RX queues with
 *               RSS/RETA steering over a synthetic flow population).
 *   --rx-queues=N use N RX rings on the shared port (0 keeps the
 *               legacy one-port-per-NF layout).
 *
 * A numeric option with an empty value, trailing characters, a sign
 * or an out-of-range value is an error (exit 2), as is a file option
 * with an empty path, --trace in a build without the tracer, and an
 * unknown option.
 */
struct BenchOptions
{
    unsigned jobs = 1;
    std::string jsonPath;
    std::string tracePath;
    std::optional<std::uint64_t> seed;
    std::string checkpointPath;
    std::string restorePath;
    bool warmStart = false;
    std::uint32_t cores = 0;
    std::uint32_t rxQueues = 0;
};

/**
 * Apply the --cores / --rx-queues topology options to one config.
 * --cores implies a multi-queue port (rxQueues = cores) unless
 * --rx-queues overrides it.
 */
inline void
applyTopology(harness::ExperimentConfig &cfg, const BenchOptions &opts)
{
    if (opts.cores) {
        cfg.numNfs = opts.cores;
        cfg.rxQueues = opts.rxQueues ? opts.rxQueues : opts.cores;
    } else if (opts.rxQueues) {
        cfg.rxQueues = opts.rxQueues;
    }
    if (cfg.rxQueues && cfg.totalFlows == 0)
        cfg.totalFlows = 1u << 16;
}

/** Report a malformed value of option @p arg and exit 2. */
[[noreturn]] inline void
badOptionValue(const char *prog, const std::string &arg,
               const char *expected)
{
    const std::size_t eq = arg.find('=');
    std::fprintf(stderr, "%s: %s expects %s, got '%s' (try --help)\n",
                 prog, arg.substr(0, eq).c_str(), expected,
                 arg.substr(eq + 1).c_str());
    std::exit(2);
}

/** The file path after '=' in @p arg; an empty one is an error. */
inline std::string
pathOption(const char *prog, const std::string &arg)
{
    std::string path = arg.substr(arg.find('=') + 1);
    if (path.empty())
        badOptionValue(prog, arg, "a file path");
    return path;
}

/**
 * Report a --trace request to a build without the tracer and exit 2:
 * the run would record no events, and the trace would contradict its
 * totals sidecar.
 */
[[noreturn]] inline void
tracerCompiledOut(const char *prog)
{
    std::fprintf(stderr, "%s: --trace needs the packet tracer, which "
                 "this build compiled out (configure with "
                 "-DIDIO_TRACE=ON)\n", prog);
    std::exit(2);
}

/**
 * Parse all of @p text as a decimal integer into @p out. False on an
 * empty value, a sign, trailing characters or overflow.
 */
inline bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return std::isdigit(static_cast<unsigned char>(*text)) && !*end &&
           errno != ERANGE;
}

/** The non-negative integer after '=' in @p arg, at most @p max. */
inline std::uint64_t
unsignedOption(const char *prog, const std::string &arg,
               std::uint64_t max = 0xffffffffu)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(arg.c_str() + arg.find('=') + 1, v) || v > max)
        badOptionValue(prog, arg, "a non-negative integer");
    return v;
}

inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opts;
    const char *prog = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            const auto n =
                static_cast<unsigned>(unsignedOption(prog, arg));
            opts.jobs = n ? n : harness::SweepRunner::hardwareJobs();
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonPath = pathOption(prog, arg);
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.tracePath = pathOption(prog, arg);
            if (!trace::compiledIn)
                tracerCompiledOut(prog);
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = unsignedOption(prog, arg, ~std::uint64_t(0));
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            opts.checkpointPath = pathOption(prog, arg);
        } else if (arg.rfind("--restore=", 0) == 0) {
            opts.restorePath = pathOption(prog, arg);
        } else if (arg == "--warm-start") {
            opts.warmStart = true;
        } else if (arg.rfind("--cores=", 0) == 0) {
            opts.cores =
                static_cast<std::uint32_t>(unsignedOption(prog, arg));
        } else if (arg.rfind("--rx-queues=", 0) == 0) {
            opts.rxQueues =
                static_cast<std::uint32_t>(unsignedOption(prog, arg));
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs=N] [--json=FILE] [--trace=FILE]\n"
                "          [--seed=N] [--checkpoint=FILE] "
                "[--restore=FILE] [--warm-start]\n"
                "  --jobs=N    parallel sweep threads "
                "(0 = all %u host threads; results identical)\n"
                "  --json=FILE write measured rows as JSON\n"
                "  --trace=FILE write a Perfetto-compatible event "
                "trace of the first case\n"
                "  --seed=N    override the RNG seed of every case\n"
                "  --checkpoint=FILE save the first case's state at "
                "the 20 us mark\n"
                "  --restore=FILE start the first case from FILE "
                "(bit-identical resume)\n"
                "  --warm-start fork sweep cases from one shared "
                "warm-up (where supported)\n"
                "  --cores=N   scale cases to an N-core socket "
                "(implies --rx-queues=N)\n"
                "  --rx-queues=N multi-queue RX rings with RSS "
                "steering (0 = legacy layout)\n",
                argv[0], harness::SweepRunner::hardwareJobs());
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown option '%s' "
                         "(try --help)\n", argv[0], arg.c_str());
            std::exit(2);
        }
    }
    return opts;
}

/** Everything measured from one run. */
struct RunMetrics
{
    harness::Totals totals;

    /** First packet arrival (ticks). */
    sim::Tick firstArrival = 0;

    /** Tick at which the NFs finished the last burst packet. */
    sim::Tick drainedAt = 0;

    /** Burst processing time: firstArrival .. drainedAt. */
    sim::Tick
    execTime() const
    {
        return drainedAt > firstArrival ? drainedAt - firstArrival : 0;
    }

    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;

    /** Antagonist CPI proxy (0 when not co-running). */
    double antagonistTpa = 0.0;
};

/** Measurement-loop quantum shared by every single-burst run. */
constexpr sim::Tick burstQuantum = 10 * sim::oneUs;

/** Default checkpoint/warm-up tick: two quanta into the burst. */
constexpr sim::Tick warmStartTick = 20 * sim::oneUs;

/**
 * A checkpoint plus the measurement-loop state that accompanies it,
 * so a run resumed from it reports the same firstArrival (and hence
 * execTime) as the uninterrupted run.
 */
struct WarmState
{
    std::vector<std::uint8_t> blob;
    sim::Tick tick = 0;
    sim::Tick firstArrival = 0;
    bool sawFirst = false;
};

/** Write @p w to @p path plus a @p path.meta loop-state sidecar. */
inline void
saveWarmState(const std::string &path, const WarmState &w)
{
    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        sim::fatal("cannot write checkpoint '%s'", path.c_str());
    ofs.write(reinterpret_cast<const char *>(w.blob.data()),
              static_cast<std::streamsize>(w.blob.size()));
    if (!ofs)
        sim::fatal("short write to checkpoint '%s'", path.c_str());

    std::ofstream meta(path + ".meta");
    if (!meta)
        sim::fatal("cannot write checkpoint meta '%s.meta'",
                   path.c_str());
    meta << "firstArrival=" << w.firstArrival << "\n"
         << "sawFirst=" << (w.sawFirst ? 1 : 0) << "\n";
}

/**
 * Read a checkpoint and its .meta sidecar back. The sidecar is
 * required: without its loop state a resumed run would re-measure
 * firstArrival from resume time and report a different execTime. A
 * missing sidecar, an unknown key, a missing key, a non-numeric
 * firstArrival or a sawFirst other than 0/1 is fatal, naming the file
 * and the line.
 */
inline WarmState
loadWarmState(const std::string &path)
{
    WarmState w;
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        sim::fatal("cannot read checkpoint '%s'", path.c_str());
    w.blob.assign(std::istreambuf_iterator<char>(ifs),
                  std::istreambuf_iterator<char>());

    const std::string metaPath = path + ".meta";
    std::ifstream meta(metaPath);
    if (!meta)
        sim::fatal("cannot read checkpoint meta '%s'", metaPath.c_str());
    bool haveFirstArrival = false;
    bool haveSawFirst = false;
    std::string line;
    for (int lineNo = 1; std::getline(meta, line); ++lineNo) {
        const std::size_t eq = line.find('=');
        const std::string key = line.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : line.substr(eq + 1);
        if (key == "firstArrival") {
            if (!parseUnsigned(value.c_str(), w.firstArrival)) {
                sim::fatal("%s:%d: firstArrival '%s' is not a tick "
                           "count", metaPath.c_str(), lineNo,
                           value.c_str());
            }
            haveFirstArrival = true;
        } else if (key == "sawFirst") {
            if (value != "0" && value != "1")
                sim::fatal("%s:%d: sawFirst '%s' is not 0 or 1",
                           metaPath.c_str(), lineNo, value.c_str());
            w.sawFirst = value == "1";
            haveSawFirst = true;
        } else {
            sim::fatal("%s:%d: unknown checkpoint meta line '%s'",
                       metaPath.c_str(), lineNo, line.c_str());
        }
    }
    if (!haveFirstArrival || !haveSawFirst)
        sim::fatal("%s: missing %s", metaPath.c_str(),
                   haveFirstArrival ? "sawFirst" : "firstArrival");
    return w;
}

/** Optional checkpoint/restore hooks for a single-burst run. */
struct BurstRunOptions
{
    sim::Tick limit = 50 * sim::oneMs;
    std::string tracePath;

    /** Fork from this in-memory warm state instead of running cold. */
    const WarmState *warm = nullptr;

    /** Or restore from this checkpoint file (with .meta sidecar). */
    std::string restorePath;

    /** Save a checkpoint file once @p checkpointTick is reached. */
    std::string checkpointPath;
    sim::Tick checkpointTick = warmStartTick;
};

/**
 * Run one burst per NIC and measure burst processing time: the system
 * runs in small quanta until every delivered packet is processed (or
 * the limit passes).
 *
 * With a non-empty tracePath the run records a packet-lifecycle
 * event trace and writes it (plus the totals sidecar) on completion.
 *
 * A run forked from a warm state (or restored from a file) continues
 * the measurement loop from the checkpoint tick; because saving only
 * reads simulator state and the checkpoint tick is a quantum
 * multiple, the result is bit-identical to the uninterrupted run.
 */
inline RunMetrics
runSingleBurst(const harness::ExperimentConfig &config,
               const BurstRunOptions &opts)
{
    harness::ExperimentConfig cfg = config;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec; // effectively one burst

    harness::TestSystem sys(cfg);
    if (!opts.tracePath.empty())
        harness::enableTracing(sys);
    sys.start();

    RunMetrics m;
    bool sawFirst = false;

    WarmState fileState;
    const WarmState *warm = opts.warm;
    if (warm == nullptr && !opts.restorePath.empty()) {
        fileState = loadWarmState(opts.restorePath);
        warm = &fileState;
    }
    if (warm != nullptr) {
        sys.restore(warm->blob);
        sawFirst = warm->sawFirst;
        m.firstArrival = warm->firstArrival;
    }

    const std::uint64_t expected = cfg.expectedBurstTotal();

    bool saved = opts.checkpointPath.empty();
    while (sys.simulation().now() < opts.limit) {
        sys.runFor(burstQuantum);
        const auto t = sys.totals();
        if (!sawFirst && t.rxPackets > 0) {
            sawFirst = true;
            m.firstArrival = sys.simulation().now() - burstQuantum;
        }
        if (!saved &&
            sys.simulation().now() >= opts.checkpointTick) {
            saved = true;
            WarmState w;
            w.tick = sys.simulation().now();
            w.firstArrival = m.firstArrival;
            w.sawFirst = sawFirst;
            w.blob = sys.checkpoint();
            saveWarmState(opts.checkpointPath, w);
        }
        if (t.processedPackets + t.rxDrops >= expected &&
            t.rxPackets >= expected) {
            m.drainedAt = sys.simulation().now();
            break;
        }
    }
    if (m.drainedAt == 0)
        m.drainedAt = sys.simulation().now();

    // Let in-flight TX completions settle for latency accounting.
    sys.runFor(100 * sim::oneUs);

    m.totals = sys.totals();
    m.p50 = sys.nf(0).latency.p50();
    m.p99 = sys.nf(0).latency.p99();
    if (!sys.antagonists().empty())
        m.antagonistTpa = sys.antagonists().front()->ticksPerAccess();
    if (!opts.tracePath.empty())
        harness::writeTraceArtifacts(opts.tracePath, sys);
    return m;
}

/** Cold single-burst run (the common case). */
inline RunMetrics
runSingleBurst(const harness::ExperimentConfig &config,
               sim::Tick limit = 50 * sim::oneMs,
               const std::string &tracePath = {})
{
    BurstRunOptions opts;
    opts.limit = limit;
    opts.tracePath = tracePath;
    return runSingleBurst(config, opts);
}

/**
 * Run the shared warm-up of a single-burst experiment under
 * @p config and checkpoint in memory at @p warmTick (a quantum
 * multiple strictly before the drain point). The returned state can
 * fork any config that behaves identically to @p config up to
 * @p warmTick — for a threshold sweep, any sibling whose decisions
 * only diverge once the measured rates cross between thresholds.
 */
inline WarmState
captureWarmState(const harness::ExperimentConfig &config,
                 sim::Tick warmTick = warmStartTick)
{
    SIM_ASSERT(warmTick % burstQuantum == 0,
               "warmTick must be a multiple of the burst quantum");

    harness::ExperimentConfig cfg = config;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec;

    harness::TestSystem sys(cfg);
    sys.start();

    WarmState w;
    while (sys.simulation().now() < warmTick) {
        sys.runFor(burstQuantum);
        const auto t = sys.totals();
        if (!w.sawFirst && t.rxPackets > 0) {
            w.sawFirst = true;
            w.firstArrival = sys.simulation().now() - burstQuantum;
        }
    }
    w.tick = sys.simulation().now();
    w.blob = sys.checkpoint();
    return w;
}

/**
 * Honour --trace=FILE: re-run @p cfg serially with event tracing on
 * and write the trace + totals sidecar. Kept separate from the sweep
 * so the measured (and possibly parallel) runs stay untraced.
 */
inline void
maybeTraceRun(const BenchOptions &opts,
              const harness::ExperimentConfig &cfg,
              sim::Tick limit = 50 * sim::oneMs)
{
    if (opts.tracePath.empty())
        return;
    runSingleBurst(cfg, limit, opts.tracePath);
    std::printf("# trace written to %s (+ .totals.json sidecar)\n",
                opts.tracePath.c_str());
}

/** Run a fixed duration (steady experiments). */
inline RunMetrics
runFor(const harness::ExperimentConfig &cfg, sim::Tick duration)
{
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(duration);

    RunMetrics m;
    m.totals = sys.totals();
    m.drainedAt = duration;
    m.p50 = sys.nf(0).latency.p50();
    m.p99 = sys.nf(0).latency.p99();
    if (!sys.antagonists().empty())
        m.antagonistTpa = sys.antagonists().front()->ticksPerAccess();
    return m;
}

/**
 * One labelled experiment of a sweep: the config plus the caller's
 * row identity, carried through SweepRunner so printing can happen
 * after the parallel phase without re-deriving loop state.
 */
struct SweepCase
{
    std::string label;
    harness::ExperimentConfig cfg;
};

/** Honour --seed=N: override the seed of every sweep case. */
inline void
applySeed(std::vector<SweepCase> &cases, const BenchOptions &opts)
{
    if (!opts.seed)
        return;
    for (auto &c : cases)
        c.cfg.seed = *opts.seed;
}

/**
 * Apply every per-case option override (--seed and the
 * --cores/--rx-queues topology) to a sweep's cases.
 */
inline void
applyCaseOptions(std::vector<SweepCase> &cases,
                 const BenchOptions &opts)
{
    applySeed(cases, opts);
    for (auto &c : cases)
        applyTopology(c.cfg, opts);
}

/**
 * Run every case through @p fn on @p jobs threads (SweepRunner) and
 * return metrics in case order.
 */
template <typename Fn>
inline std::vector<RunMetrics>
runSweep(const std::vector<SweepCase> &cases, unsigned jobs, Fn &&fn)
{
    harness::SweepRunner runner(jobs);
    return runner.map(cases, [&](const SweepCase &c) {
        return fn(c.cfg);
    });
}

/** runSweep with the default single-burst measurement. */
inline std::vector<RunMetrics>
runSweepSingleBurst(const std::vector<SweepCase> &cases, unsigned jobs)
{
    return runSweep(cases, jobs, [](const harness::ExperimentConfig &c) {
        return runSingleBurst(c);
    });
}

/**
 * Single-burst sweep honouring the checkpoint/restore/seed options:
 * --seed applies to every case (mutating them, so the caller's JSON
 * rows echo the applied seed); --checkpoint / --restore act on the
 * FIRST case (saving is observationally pure, so measured results
 * are unchanged).
 */
inline std::vector<RunMetrics>
runSweepSingleBurst(std::vector<SweepCase> &cases,
                    const BenchOptions &opts)
{
    applyCaseOptions(cases, opts);
    harness::SweepRunner runner(opts.jobs);
    const SweepCase *first = cases.data();
    return runner.map(cases, [&](const SweepCase &c) {
        BurstRunOptions ro;
        if (&c == first) {
            ro.checkpointPath = opts.checkpointPath;
            ro.restorePath = opts.restorePath;
        }
        return runSingleBurst(c.cfg, ro);
    });
}

/**
 * Warm-start fork sweep: every case resumes from @p warm (captured
 * once with captureWarmState) and runs to completion, in parallel.
 * For configs whose behaviour matches the warm-up config up to the
 * warm tick, each result is bit-identical to a cold run of that case.
 */
inline std::vector<RunMetrics>
runSweepWarmFork(const std::vector<SweepCase> &cases,
                 const BenchOptions &opts, const WarmState &warm,
                 sim::Tick limit = 50 * sim::oneMs)
{
    harness::SweepRunner runner(opts.jobs);
    return runner.map(cases, [&](const SweepCase &c) {
        BurstRunOptions ro;
        ro.limit = limit;
        ro.warm = &warm;
        return runSingleBurst(c.cfg, ro);
    });
}

/**
 * Optional JSON sidecar for a bench run: one object with the bench
 * name, the job count, and an array of per-case metric rows. Inactive
 * (all no-ops) when the path is empty.
 */
class JsonReport
{
  public:
    JsonReport(const std::string &path, const std::string &benchName,
               unsigned jobs)
    {
        if (path.empty())
            return;
        ofs.open(path);
        if (!ofs)
            sim::fatal("cannot open JSON output file '%s'",
                       path.c_str());
        writer = std::make_unique<stats::JsonWriter>(ofs);
        writer->beginObject();
        writer->field("bench", benchName);
        writer->field("jobs", jobs);
        writer->beginArray("rows");
    }

    ~JsonReport()
    {
        if (!writer)
            return;
        writer->end(); // rows
        writer->end(); // top-level object
        ofs << "\n";
    }

    /** Append one measured row. */
    void
    row(const SweepCase &c, const RunMetrics &m)
    {
        if (!writer)
            return;
        stats::JsonWriter &w = *writer;
        w.beginObject();
        w.field("label", c.label);
        w.field("rateGbps", c.cfg.rateGbps);
        w.field("seed", c.cfg.seed);
        w.field("mlcWB", m.totals.mlcWritebacks);
        w.field("nfMlcWB", m.totals.nfMlcWritebacks);
        w.field("mlcPcieInvals", m.totals.mlcPcieInvals);
        w.field("llcWB", m.totals.llcWritebacks);
        w.field("dramRd", m.totals.dramReads);
        w.field("dramWr", m.totals.dramWrites);
        w.field("rxPackets", m.totals.rxPackets);
        w.field("rxDrops", m.totals.rxDrops);
        w.field("processedPackets", m.totals.processedPackets);
        w.field("execTimeUs", sim::ticksToUs(m.execTime()));
        w.field("p50Us", sim::ticksToUs(m.p50));
        w.field("p99Us", sim::ticksToUs(m.p99));
        w.field("antagonistTpa", m.antagonistTpa);
        w.end();
    }

    explicit operator bool() const { return writer != nullptr; }

  private:
    std::ofstream ofs;
    std::unique_ptr<stats::JsonWriter> writer;
};

/** "x.xx" ratio of two counters, "-" when the base is zero. */
inline std::string
ratio(std::uint64_t ours, std::uint64_t base, int precision = 2)
{
    if (base == 0)
        return ours == 0 ? "0.00" : "inf";
    return stats::TablePrinter::num(
        static_cast<double>(ours) / static_cast<double>(base),
        precision);
}

/** Print the Table I configuration echo every bench starts with. */
inline void
printConfigEcho(const harness::ExperimentConfig &cfg)
{
    std::printf("# Table I config: %u-core aarch64-class @ %.1f GHz, "
                "L1D %lluKB/%u, MLC %lluKB/%u, LLC %lluKB/%u "
                "(%u DDIO ways), DDR4 %.0fGB/s\n",
                cfg.hier.numCores, cfg.hier.cpuFreqGHz,
                (unsigned long long)cfg.hier.l1.sizeBytes / 1024,
                cfg.hier.l1.assoc,
                (unsigned long long)cfg.hier.mlc.sizeBytes / 1024,
                cfg.hier.mlc.assoc,
                (unsigned long long)cfg.hier.llcSizeBytes() / 1024,
                cfg.hier.llcPerCore.assoc, cfg.hier.ddioWays,
                cfg.hier.dramBandwidthGBps);
    std::printf("# workload: %s\n\n", cfg.summary().c_str());
}

} // namespace bench

#endif // IDIO_BENCH_COMMON_HH
