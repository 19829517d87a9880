/**
 * @file
 * Shared machinery for the figure-reproduction benches.
 *
 * Every bench binary prints the series/rows of one paper table or
 * figure. The helpers here parse the benches' options, step a system
 * in one run loop (to a drain or a horizon, with optional checkpoint
 * and restore) and report each run as a harness::RunReport: the
 * transaction totals, burst processing time (burst start until the
 * NFs drain) and percentile latencies the paper reports, written by
 * --json=FILE in the one report schema.
 */

#ifndef IDIO_BENCH_COMMON_HH
#define IDIO_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "harness/run_report.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "stats/table.hh"
#include "trace/tracer.hh"

namespace bench
{

/**
 * The options of the benches that take any, one bit each.
 * parseBenchOptions() takes the set a bench honours and rejects every
 * other option with exit 2, so no option is parsed and then ignored.
 */
enum BenchFlag : unsigned
{
    flagJobs = 1u << 0,
    flagJson = 1u << 1,
    flagTrace = 1u << 2,
    flagSeed = 1u << 3,
    flagCheckpoint = 1u << 4,
    flagRestore = 1u << 5,
    flagWarmStart = 1u << 6,
    flagCores = 1u << 7,
};

/** What every figure sweep (fig09/10/12/14) honours. */
constexpr unsigned sweepFlags = flagJobs | flagJson | flagTrace |
                                flagSeed | flagCheckpoint |
                                flagRestore | flagCores;

/** One option: its bit, its spelling and its --help line. */
struct FlagSpec
{
    BenchFlag flag;
    const char *usage;
    const char *help;
};

inline constexpr FlagSpec flagSpecs[] = {
    {flagJobs, "--jobs=N",
     "sweep threads (0 = all host threads); same results"},
    {flagJson, "--json=FILE", "write the measured rows as JSON"},
    {flagTrace, "--trace=FILE",
     "trace the first case to FILE (+ FILE.totals.json)"},
    {flagSeed, "--seed=N", "override the RNG seed of every case"},
    {flagCheckpoint, "--checkpoint=FILE",
     "save the first case's state to FILE at 20 us"},
    {flagRestore, "--restore=FILE",
     "start the first case from FILE; same results"},
    {flagWarmStart, "--warm-start",
     "fork the sweep from one run's state at 20 us"},
    {flagCores, "--cores=N",
     "scale every case to N cores with N RSS queues"},
};

/**
 * The parsed options. A numeric option with an empty value, trailing
 * characters, a sign or an out-of-range value is an error (exit 2),
 * as is a file option with an empty path, --trace in a build without
 * the tracer, an unknown option and one the bench does not honour.
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
};

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

/** The non-negative integer after '=' in @p arg, at most @p max. */
inline std::uint64_t
unsignedOption(const char *prog, const std::string &arg,
               std::uint64_t max = 0xffffffffu)
{
    const char *text = arg.c_str() + arg.find('=') + 1;
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*text)) || *end ||
        errno == ERANGE || v > max) {
        badOptionValue(prog, arg, "a non-negative integer");
    }
    return v;
}

/** The spec @p arg spells ("--name=value" or a bare "--name"). */
inline const FlagSpec *
findFlag(const std::string &arg)
{
    for (const FlagSpec &s : flagSpecs) {
        const std::string_view usage = s.usage;
        const std::size_t eq = usage.find('=');
        if (eq == std::string_view::npos
                ? arg == usage
                : arg.compare(0, eq + 1, usage.substr(0, eq + 1)) == 0) {
            return &s;
        }
    }
    return nullptr;
}

/** Print the --help text of the options in @p honoured and exit 0. */
[[noreturn]] inline void
printUsage(const char *prog, unsigned honoured)
{
    std::printf("usage: %s", prog);
    for (const FlagSpec &s : flagSpecs) {
        if (honoured & s.flag)
            std::printf(" [%s]", s.usage);
    }
    std::printf("\n");
    for (const FlagSpec &s : flagSpecs) {
        if (honoured & s.flag)
            std::printf("  %-18s %s\n", s.usage, s.help);
    }
    std::exit(0);
}

/** Parse argv, accepting only the options in @p honoured. */
inline BenchOptions
parseBenchOptions(int argc, char **argv, unsigned honoured)
{
    BenchOptions opts;
    const char *prog = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printUsage(prog, honoured);
        const FlagSpec *spec = findFlag(arg);
        if (spec == nullptr) {
            std::fprintf(stderr, "%s: unknown option '%s' "
                         "(try --help)\n", prog, arg.c_str());
            std::exit(2);
        }
        if (!(honoured & spec->flag)) {
            std::fprintf(stderr, "%s: this bench does not take %s "
                         "(try --help)\n", prog,
                         arg.substr(0, arg.find('=')).c_str());
            std::exit(2);
        }
        switch (spec->flag) {
          case flagJobs: {
            const auto n =
                static_cast<unsigned>(unsignedOption(prog, arg));
            opts.jobs = n ? n : harness::SweepRunner::hardwareJobs();
            break;
          }
          case flagJson:
            opts.jsonPath = pathOption(prog, arg);
            break;
          case flagTrace:
            opts.tracePath = pathOption(prog, arg);
            if (!trace::compiledIn)
                tracerCompiledOut(prog);
            break;
          case flagSeed:
            opts.seed = unsignedOption(prog, arg, ~std::uint64_t(0));
            break;
          case flagCheckpoint:
            opts.checkpointPath = pathOption(prog, arg);
            break;
          case flagRestore:
            opts.restorePath = pathOption(prog, arg);
            break;
          case flagWarmStart:
            opts.warmStart = true;
            break;
          case flagCores:
            opts.cores =
                static_cast<std::uint32_t>(unsignedOption(prog, arg));
            break;
        }
    }
    return opts;
}

/** runLoop()'s step while it watches for a drain or a save. */
constexpr sim::Tick burstQuantum = 10 * sim::oneUs;

/** The checkpoint and warm-start tick: two quanta into the run. */
constexpr sim::Tick warmStartTick = 20 * sim::oneUs;

/**
 * Where a run loop stops, and what it restores first and saves on
 * the way. A checkpoint goes to a file in ckpt::saveToFile's format
 * (the one quickstart writes and tools/ckpt_inspect.py reads) or into
 * a blob in memory.
 */
struct RunLoop
{
    /** Stop at this tick at the latest. */
    sim::Tick horizon = 50 * sim::oneMs;

    /**
     * Drain stop: stop earlier, once this many packets have arrived
     * and been processed or dropped (0 = run to the horizon).
     */
    std::uint64_t drainPackets = 0;

    /** Before the first step, restore this file, else this blob. */
    std::string restorePath{};
    const std::vector<std::uint8_t> *restoreBlob = nullptr;

    /**
     * At the first quantum boundary at or past warmStartTick, save to
     * this file, else into this blob.
     */
    std::string checkpointPath{};
    std::vector<std::uint8_t> *saveBlob = nullptr;
};

/**
 * Step the started system @p sys as @p loop says and return the tick
 * it stopped at: by burstQuantum while a drain or a save is pending,
 * then straight to the horizon. Saving only reads simulator state,
 * and how a run is cut into steps changes no result (a step's end
 * wakes idle cores and may sweep the invariant checker, which costs
 * only host time), so a run that saves, and a run resumed from what
 * it saved, both match the uninterrupted run bit for bit.
 */
inline sim::Tick
runLoop(harness::TestSystem &sys, const RunLoop &loop)
{
    sim::Simulation &simulation = sys.simulation();
    if (!loop.restorePath.empty())
        ckpt::restoreFromFile(loop.restorePath, simulation);
    else if (loop.restoreBlob != nullptr)
        sys.restore(*loop.restoreBlob);

    bool save = !loop.checkpointPath.empty() || loop.saveBlob != nullptr;
    while (simulation.now() < loop.horizon) {
        const sim::Tick left = loop.horizon - simulation.now();
        sys.runFor(save || loop.drainPackets != 0
                       ? std::min(burstQuantum, left)
                       : left);
        if (save && simulation.now() >= warmStartTick) {
            save = false;
            if (loop.saveBlob != nullptr)
                *loop.saveBlob = sys.checkpoint();
            else
                ckpt::saveToFile(loop.checkpointPath, simulation);
        }
        if (loop.drainPackets != 0) {
            const harness::Totals t = sys.totals();
            if (t.processedPackets + t.rxDrops >= loop.drainPackets &&
                t.rxPackets >= loop.drainPackets) {
                break;
            }
        }
    }
    return simulation.now();
}

/** @p config with its traffic cut to one burst per NIC. */
inline harness::ExperimentConfig
singleBurst(harness::ExperimentConfig config)
{
    config.traffic = harness::TrafficKind::Bursty;
    config.burstPeriod = 10 * sim::oneSec; // effectively one burst
    return config;
}

/**
 * Step the started single-burst system @p sys until every delivered
 * packet is processed (or @p loop's horizon passes); return that
 * tick. In-flight TX completions then settle for 100 us, so the
 * latency samples are complete.
 */
inline sim::Tick
drainBurst(harness::TestSystem &sys, RunLoop loop)
{
    loop.drainPackets = sys.config().expectedBurstTotal();
    const sim::Tick drainedAt = runLoop(sys, loop);
    sys.runFor(100 * sim::oneUs);
    return drainedAt;
}

/** Run one burst of @p config to its drain and report it. */
inline harness::RunReport
runSingleBurst(const harness::ExperimentConfig &config,
               const RunLoop &loop = {})
{
    harness::TestSystem sys(singleBurst(config));
    sys.start();
    const sim::Tick drainedAt = drainBurst(sys, loop);
    return harness::captureReport(sys, drainedAt);
}

/** Run @p cfg's own traffic to @p loop's horizon and report it. */
inline harness::RunReport
runToHorizon(const harness::ExperimentConfig &cfg, const RunLoop &loop)
{
    harness::TestSystem sys(cfg);
    sys.start();
    const sim::Tick horizon = runLoop(sys, loop);
    return harness::captureReport(sys, horizon);
}

/**
 * Honour --trace=FILE: re-run @p cfg's single burst serially with
 * event tracing on and write the trace + totals sidecar. Kept
 * separate from the sweep so the measured (and possibly parallel)
 * runs stay untraced.
 */
inline void
maybeTraceRun(const BenchOptions &opts,
              const harness::ExperimentConfig &cfg)
{
    if (opts.tracePath.empty())
        return;
    harness::TestSystem sys(singleBurst(cfg));
    harness::enableTracing(sys);
    sys.start();
    const sim::Tick drainedAt = drainBurst(sys, {});
    harness::writeTraceArtifacts(opts.tracePath, sys, drainedAt);
    std::printf("# trace written to %s (+ .totals.json sidecar)\n",
                opts.tracePath.c_str());
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

/**
 * @p cfg with --seed and --cores applied. --cores=N gives it N NF
 * cores on one port with N RX queues, RSS-steered over a synthetic
 * flow population.
 */
inline harness::ExperimentConfig
withCaseOptions(harness::ExperimentConfig cfg, const BenchOptions &opts)
{
    if (opts.seed)
        cfg.seed = *opts.seed;
    if (opts.cores) {
        cfg.numNfs = opts.cores;
        cfg.rxQueues = opts.cores;
        if (cfg.totalFlows == 0)
            cfg.totalFlows = 1u << 16;
    }
    return cfg;
}

/** Honour --seed and --cores in every case of a sweep. */
inline void
applyCaseOptions(std::vector<SweepCase> &cases, const BenchOptions &opts)
{
    for (auto &c : cases)
        c.cfg = withCaseOptions(c.cfg, opts);
}

/** A bench run of one config: runSingleBurst or runToHorizon. */
using RunFn = harness::RunReport (*)(const harness::ExperimentConfig &,
                                     const RunLoop &);

/**
 * Run every case through @p run with @p loop on opts.jobs threads and
 * return the reports in case order. --checkpoint and --restore act on
 * the FIRST case; saving only reads state, so the measured results
 * are unchanged.
 */
inline std::vector<harness::RunReport>
runSweep(const std::vector<SweepCase> &cases, const BenchOptions &opts,
         RunFn run = runSingleBurst, const RunLoop &loop = {})
{
    harness::SweepRunner runner(opts.jobs);
    return runner.map(cases, [&](const SweepCase &c) {
        RunLoop l = loop;
        if (&c == &cases.front()) {
            l.checkpointPath = opts.checkpointPath;
            l.restorePath = opts.restorePath;
        }
        return run(c.cfg, l);
    });
}

/**
 * Honour --json=FILE: write the reports of @p cases (in case order)
 * as bench @p bench's report file (harness/run_report.hh).
 */
inline void
maybeWriteJson(const BenchOptions &opts, const std::string &bench,
               const std::vector<SweepCase> &cases,
               const std::vector<harness::RunReport> &reports)
{
    if (opts.jsonPath.empty())
        return;
    std::vector<harness::ReportRow> rows;
    for (std::size_t i = 0; i < cases.size(); ++i)
        rows.push_back({cases[i].label, cases[i].cfg, reports[i]});
    harness::writeReportFile(opts.jsonPath, bench, rows);
}

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

/**
 * Print the Table I configuration echo every bench starts with: the
 * hierarchy TestSystem builds from @p cfg's machine plan (its core
 * count and LLC size) and the plan's summary.
 */
inline void
printConfigEcho(const harness::ExperimentConfig &cfg)
{
    const cache::HierarchyConfig hier =
        harness::planMachine(cfg).hierarchy(cfg.hier);
    std::printf("# Table I config: %u-core aarch64-class @ %.1f GHz, "
                "L1D %lluKB/%u, MLC %lluKB/%u, LLC %lluKB/%u "
                "(%u DDIO ways), DDR4 %.0fGB/s\n",
                hier.numCores, hier.cpuFreqGHz,
                (unsigned long long)hier.l1.sizeBytes / 1024,
                hier.l1.assoc,
                (unsigned long long)hier.mlc.sizeBytes / 1024,
                hier.mlc.assoc,
                (unsigned long long)hier.llcSizeBytes() / 1024,
                hier.llcPerCore.assoc, hier.ddioWays,
                mem::DramModel::bandwidthGBps);
    std::printf("# workload: %s\n\n", cfg.summary().c_str());
}

} // namespace bench

#endif // IDIO_BENCH_COMMON_HH
