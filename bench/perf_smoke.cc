/**
 * @file
 * Simulator-performance smoke benchmark.
 *
 * Measures host-side performance of the simulation substrate (not any
 * simulated metric) and writes a machine-readable trajectory point:
 *
 *  - event-queue one-shot schedule/fire throughput,
 *  - deschedule/compaction churn throughput,
 *  - the RSS Toeplitz hash, which the NIC computes for every packet
 *    that no EP rule steers,
 *  - cache-hierarchy streaming-miss and PCIe-write throughput,
 *  - the headline simulated-packets-per-wall-second rate of a default
 *    single-burst run,
 *  - a 32-core / 32-RX-queue scaled run, unsharded vs sharded, with a
 *    byte-identical determinism check (stats JSON + event trace) of
 *    the sharded executor across worker counts,
 *  - the same scaled machine on the SPLIT shard plan (modelled PCIe
 *    and mesh link latencies, so per-core + NIC + uncore run in
 *    separate conflict groups), timed with --sharded-jobs workers and
 *    byte-checked across worker counts,
 *  - a fig10-style config sweep run serially and on a thread pool,
 *    with a bit-identical-results determinism check.
 *
 * --scaled-only restricts the run to the split-plan scaled
 * measurement (the CI scaling job invokes it three times with
 * --sharded-jobs=1/2/4 and byte-compares the --artifacts dumps).
 *
 * The JSON output (default BENCH_perf.json) is committed periodically
 * as the repo's performance trajectory and is compared by
 * tools/bench_compare.py in CI. Its "build" object records the build
 * type, the IDIO_CHECK_INVARIANTS and IDIO_TRACE settings, the
 * scheduler backend and the git revision; bench_compare refuses to
 * compare files whose build configurations differ. Wall-clock
 * numbers are only comparable across runs on similar hosts;
 * `hw_threads` records how parallel the sweep could actually go (the
 * speedup criterion needs a multi-core host — on a single-thread host
 * the speedup fields are omitted from the JSON and a notice is
 * printed instead).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common.hh"
#include "net/flow.hh"
#include "sim/event_queue.hh"
#include "tenant_scenario.hh"
#include "trace/chrome_export.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One micro measurement: fixed op count, wall-clocked. */
struct MicroResult
{
    const char *name;
    std::uint64_t ops;
    double wallSec;

    double nsPerOp() const { return wallSec / double(ops) * 1e9; }
    double opsPerSec() const { return double(ops) / wallSec; }
};

/**
 * Min-of-N micro timing: one discarded warm-up pass (page faults,
 * branch predictors, allocator pools), then @p reps measured passes,
 * keeping the fastest. The minimum is the right statistic for a
 * fixed-work micro — every slower pass is the same work plus host
 * interference.
 */
template <typename Fn>
MicroResult
minOfN(Fn fn, unsigned reps)
{
    fn(); // warm-up, discarded
    MicroResult best = fn();
    for (unsigned r = 1; r < reps; ++r) {
        const MicroResult m = fn();
        if (m.wallSec < best.wallSec)
            best = m;
    }
    return best;
}

MicroResult
microEventQueueOneShot(std::uint64_t ops)
{
    sim::EventQueue q;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        q.schedule(q.now() + 10, [&sink] { ++sink; });
        q.runUntil(q.now() + 10);
    }
    MicroResult r{"eventQueueOneShot", ops, secondsSince(start)};
    if (sink != ops)
        sim::fatal("one-shot micro fired %llu of %llu events",
                   (unsigned long long)sink, (unsigned long long)ops);
    return r;
}

MicroResult
microEventQueueSquashCompact(std::uint64_t ops)
{
    class NopEvent : public sim::Event
    {
      public:
        void process() override {}
    };

    constexpr std::uint64_t batch = 64;
    std::vector<NopEvent> evs(batch);
    sim::EventQueue q;
    const std::uint64_t rounds = ops / batch;
    const auto start = Clock::now();
    for (std::uint64_t n = 0; n < rounds; ++n) {
        for (std::uint64_t i = 0; i < batch; ++i)
            q.schedule(&evs[i], q.now() + 10 + sim::Tick(i));
        for (std::uint64_t i = 0; i < batch; ++i)
            q.deschedule(&evs[i]);
    }
    MicroResult r{"eventQueueSquashCompact", rounds * batch,
                  secondsSince(start)};
    if (q.pending() != 0)
        sim::fatal("squash micro left %zu events pending", q.pending());
    return r;
}

MicroResult
microToeplitzHash(std::uint64_t ops)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.dstPort = 5000;
    // Summed, not XORed: the hash is linear over XOR, so the XOR of
    // the hashes of every port value cancels to zero.
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        t.srcPort = static_cast<std::uint16_t>(i);
        t.srcIp = 0x0a000000 | static_cast<std::uint32_t>(i >> 16);
        sink += net::toeplitzHash(t);
    }
    MicroResult r{"toeplitzHash", ops, secondsSince(start)};
    if (sink == 0)
        sim::fatal("toeplitz micro hashed to zero");
    return r;
}

MicroResult
microCacheStreamingMiss(std::uint64_t ops)
{
    sim::Simulation s;
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", cfg);
    sim::Addr a = 0;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        sink += hier.coreRead(0, a).latency;
        a += 64;
    }
    MicroResult r{"cacheStreamingMiss", ops, secondsSince(start)};
    if (sink == 0)
        sim::fatal("streaming micro accumulated zero latency");
    return r;
}

MicroResult
microCachePcieWrite(std::uint64_t ops)
{
    sim::Simulation s;
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", cfg);
    sim::Addr a = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        hier.pcieWrite(a);
        a = (a + 64) & 0xFFFFF;
    }
    return MicroResult{"cachePcieWrite", ops, secondsSince(start)};
}

/** One timed full-system burst: packets drained per wall second. */
struct PacketRate
{
    std::uint64_t packets = 0;
    double wallSec = 0;

    /**
     * Total events processed across every queue of the run — a
     * host-independent work counter (identical no matter the
     * scheduler backend, worker count or host), unlike the wall-clock
     * rate. CI gates on events_per_packet where wall time is noise.
     */
    std::uint64_t events = 0;

    double
    perSec() const
    {
        return wallSec > 0 ? double(packets) / wallSec : 0;
    }

    double
    eventsPerPacket() const
    {
        return packets > 0 ? double(events) / double(packets) : 0;
    }
};

/**
 * Run one single-burst experiment wall-clocked; optionally capture
 * the run's stats JSON and event trace for byte-compare (capture
 * uses small per-source trace rings so a 32-core system stays cheap,
 * and is kept out of the timed runs).
 */
PacketRate
timedBurst(const harness::ExperimentConfig &config,
           std::string *statsOut = nullptr,
           std::string *traceOut = nullptr)
{
    harness::ExperimentConfig cfg = config;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst

    harness::TestSystem sys(cfg);
    if (traceOut != nullptr)
        harness::enableTracing(sys, 1u << 14);
    sys.start();

    const std::uint64_t expected = cfg.expectedBurstTotal();
    const auto start = Clock::now();
    while (sys.simulation().now() < 50 * sim::oneMs) {
        sys.runFor(bench::burstQuantum);
        const auto t = sys.totals();
        if (t.processedPackets + t.rxDrops >= expected &&
            t.rxPackets >= expected) {
            break;
        }
    }
    PacketRate r{sys.totals().processedPackets, secondsSince(start),
                 sys.simulation().totalProcessedEvents()};

    if (statsOut != nullptr) {
        std::ostringstream os;
        stats::writeJson(os, sys.simulation().statsRegistry());
        *statsOut = os.str();
    }
    if (traceOut != nullptr) {
        std::ostringstream os;
        trace::writeChromeTrace(os, sys.simulation().tracer());
        *traceOut = os.str();
    }
    return r;
}

/** The paper-shape scaled machine: 32 cores, 32 RX queues, 1M flows. */
harness::ExperimentConfig
scaledConfig()
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.burstPackets = 8192; // cap the burst so the smoke stays fast
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(idio::Policy::Idio);
    return cfg;
}

/**
 * The scaled machine on the split shard plan: modelled PCIe and mesh
 * link latencies break the fused conflict group into per-core + NIC +
 * uncore groups, so --sharded-jobs workers can genuinely overlap.
 */
harness::ExperimentConfig
splitScaledConfig(const bench::BenchOptions &opts)
{
    auto cfg = scaledConfig();
    cfg.links.pcieNs = opts.linkPcieNs > 0.0 ? opts.linkPcieNs : 500.0;
    cfg.links.meshNs = opts.linkMeshNs > 0.0 ? opts.linkMeshNs : 250.0;
    if (opts.seed)
        cfg.seed = *opts.seed;
    return cfg;
}

/** Everything measured from the split-plan scaled runs. */
struct SplitScaled
{
    PacketRate rate;
    unsigned jobs = 1;
    double pcieNs = 0.0;
    double meshNs = 0.0;
    bool deterministic = false;
    std::string stats;
    std::string trace;
};

/**
 * Time the split-plan scaled run at @p jobs workers, then re-run it
 * untimed at @p jobs and at a different worker count and byte-compare
 * stats JSON + event trace. The captured artifacts are written via
 * --artifacts for cross-process comparison (they must be identical no
 * matter which --sharded-jobs produced them).
 */
SplitScaled
measureSplitScaled(const bench::BenchOptions &opts, unsigned jobs)
{
    SplitScaled r;
    auto cfg = splitScaledConfig(opts);
    r.jobs = jobs;
    r.pcieNs = cfg.links.pcieNs;
    r.meshNs = cfg.links.meshNs;

    cfg.sharded = true;
    cfg.shardJobs = jobs;
    r.rate = timedBurst(cfg);

    timedBurst(cfg, &r.stats, &r.trace);
    auto other = cfg;
    other.shardJobs = jobs == 1 ? 2 : 1;
    std::string statsOther, traceOther;
    timedBurst(other, &statsOther, &traceOther);
    r.deterministic = !r.stats.empty() && r.stats == statsOther &&
                      r.trace == traceOther;
    return r;
}

void
writeArtifact(const std::string &path, const std::string &content)
{
    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        sim::fatal("cannot open artifact file '%s'", path.c_str());
    ofs << content;
}

/**
 * Per-tenant headline numbers of the canonical tenant mix (see
 * bench/tenant_scenario.hh), shortened for the smoke. These are
 * SIMULATED metrics — deterministic and host-independent — so
 * bench_compare.py hard-gates them (unlike the wall-clock rates).
 */
struct TenantHeadline
{
    double rpcP99Us = 0;
    double rpcP999Us = 0;
    double batchP99Us = 0;
    std::uint64_t reallocations = 0;
};

TenantHeadline
measureTenantScheme(const bench::TenantScheme &scheme,
                    const bench::BenchOptions &opts)
{
    auto cfg = bench::tenantMixConfig(scheme);
    cfg.nic.ringSize = 256; // lighter than the full bench, same shape
    if (opts.seed)
        cfg.seed = *opts.seed;

    harness::TestSystem sys(cfg);
    sys.start();
    constexpr sim::Tick horizon = 300 * sim::oneUs;
    while (sys.simulation().now() < horizon)
        sys.runFor(bench::burstQuantum);

    const auto tt = sys.tenantTotals();
    TenantHeadline h;
    h.rpcP99Us = sim::ticksToUs(tt[0].p99);
    h.rpcP999Us = sim::ticksToUs(tt[0].p999);
    h.batchP99Us = sim::ticksToUs(tt[1].p99);
    if (sys.iocaController() != nullptr)
        h.reallocations = sys.iocaController()->reallocations.get();
    return h;
}

/** The fig10-style sweep the parallel runner is judged on. */
std::vector<bench::SweepCase>
sweepCases()
{
    std::vector<bench::SweepCase> cases;
    for (double gbps : {100.0, 25.0, 10.0}) {
        for (auto policy : {idio::Policy::Ddio, idio::Policy::Static,
                            idio::Policy::Idio}) {
            harness::ExperimentConfig cfg;
            cfg.numNfs = 2;
            cfg.nfKind = harness::NfKind::TouchDrop;
            cfg.rateGbps = gbps;
            cfg.applyPolicy(policy);
            cases.push_back({std::string(idio::policyName(policy)) +
                                 " " + stats::TablePrinter::num(gbps, 0)
                                 + "G",
                             cfg});
        }
    }
    return cases;
}

bool
sameResults(const std::vector<bench::RunMetrics> &a,
            const std::vector<bench::RunMetrics> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].totals == b[i].totals) || a[i].p50 != b[i].p50 ||
            a[i].p99 != b[i].p99 ||
            a[i].firstArrival != b[i].firstArrival ||
            a[i].drainedAt != b[i].drainedAt) {
            return false;
        }
    }
    return true;
}

std::uint64_t
sweepPackets(const std::vector<bench::RunMetrics> &rows)
{
    std::uint64_t sum = 0;
    for (const auto &m : rows)
        sum += m.totals.processedPackets;
    return sum;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseBenchOptions(argc, argv);
    if (opts.jsonPath.empty())
        opts.jsonPath = "BENCH_perf.json";
    const unsigned hwThreads = harness::SweepRunner::hardwareJobs();
    // The smoke always contrasts a serial sweep with a parallel one.
    // More workers than hardware threads would only measure context
    // switching (SweepRunner clamps anyway), so cap the request.
    const unsigned sweepJobs =
        std::max(1u, std::min(opts.jobs > 1 ? opts.jobs : 8u,
                              hwThreads));

    const bool full = !opts.scaledOnly;

    std::printf("=== perf_smoke: simulator host-side performance ===\n");
    std::printf("build: %s, invariant checker %s, tracer %s, "
                "revision %s\n",
                IDIO_BUILD_TYPE, IDIO_CHECK_INVARIANTS ? "on" : "off",
                IDIO_TRACE ? "on" : "off", IDIO_GIT_REVISION);
    std::printf("host threads: %u, sweep jobs: %u%s\n\n", hwThreads,
                sweepJobs, full ? "" : " (--scaled-only)");

    const unsigned microReps = std::max(1u, opts.microReps);
    std::vector<MicroResult> micros;
    if (full) {
        micros = {
            minOfN([] { return microEventQueueOneShot(2'000'000); },
                   microReps),
            minOfN([] {
                return microEventQueueSquashCompact(2'000'000);
            }, microReps),
            minOfN([] { return microToeplitzHash(2'000'000); },
                   microReps),
            minOfN([] { return microCacheStreamingMiss(2'000'000); },
                   microReps),
            minOfN([] { return microCachePcieWrite(2'000'000); },
                   microReps),
        };
        std::printf("micros: scheduler backend %s, min of %u reps "
                    "(one warm-up pass)\n",
                    sim::EventQueue::backendName(
                        sim::EventQueue::defaultBackend()),
                    microReps);
        for (const auto &m : micros) {
            std::printf("%-26s %8.1f ns/op  %12.0f ops/s\n", m.name,
                        m.nsPerOp(), m.opsPerSec());
        }
    }

    // Headline metric: simulated packets retired per wall second on
    // the default 2-core single-burst config.
    PacketRate single;
    if (full) {
        harness::ExperimentConfig defaultCfg;
        defaultCfg.numNfs = 2;
        defaultCfg.nfKind = harness::NfKind::TouchDrop;
        defaultCfg.rateGbps = 100.0;
        defaultCfg.applyPolicy(idio::Policy::Idio);
        if (opts.seed)
            defaultCfg.seed = *opts.seed;
        single = timedBurst(defaultCfg);
        std::printf("\nsingle run: %llu packets in %.3f s  "
                    "(%.0f packets/wall-sec, %.1f events/packet)\n",
                    (unsigned long long)single.packets, single.wallSec,
                    single.perSec(), single.eventsPerPacket());
    }

    // Scaled machine: the paper's 32-core shape. Timed unsharded and
    // sharded (fused plan), plus a byte-identity check of the sharded
    // executor across worker counts (stats JSON + full event trace).
    PacketRate scaledPlain, scaledShardedRate;
    bool shardedDeterministic = true;
    if (full) {
        auto scaled = scaledConfig();
        if (opts.seed)
            scaled.seed = *opts.seed;
        scaledPlain = timedBurst(scaled);

        auto scaledSharded = scaled;
        scaledSharded.sharded = true;
        scaledSharded.shardJobs = std::max(2u, std::min(hwThreads, 4u));
        scaledShardedRate = timedBurst(scaledSharded);

        std::string statsJ1, statsJ2, traceJ1, traceJ2;
        scaledSharded.shardJobs = 1;
        timedBurst(scaledSharded, &statsJ1, &traceJ1);
        scaledSharded.shardJobs = 2;
        timedBurst(scaledSharded, &statsJ2, &traceJ2);
        shardedDeterministic = !statsJ1.empty() &&
                               statsJ1 == statsJ2 && traceJ1 == traceJ2;

        std::printf("scaled 32-core: unsharded %.0f packets/wall-sec, "
                    "sharded %.0f packets/wall-sec\n",
                    scaledPlain.perSec(), scaledShardedRate.perSec());
        std::printf("sharded deterministic: %s\n",
                    shardedDeterministic
                        ? "yes (stats+trace byte-identical across jobs)"
                        : "NO");
    }

    // Tenant-mix headline: simulated per-tenant tail latency of the
    // canonical noisy-neighbor scenario under plain DDIO sharing vs
    // the IOCA-style CAT controller, plus the controller's
    // reallocation count. Deterministic simulated numbers: any move
    // is a behaviour change, and bench_compare gates them hard.
    TenantHeadline tenantDdio, tenantIoca;
    if (full) {
        tenantDdio = measureTenantScheme(bench::tenantSchemes[0],
                                         opts);
        tenantIoca = measureTenantScheme(bench::tenantSchemes[2],
                                         opts);
        std::printf("tenant mix: rpc p99 %.2f us (ddio) vs %.2f us "
                    "(ioca, %llu way reallocations)\n",
                    tenantDdio.rpcP99Us, tenantIoca.rpcP99Us,
                    (unsigned long long)tenantIoca.reallocations);
    }

    // The same machine on the split shard plan: modelled link
    // latencies give every core, the NIC, and the uncore their own
    // conflict group, so --sharded-jobs is a real parallelism knob.
    const unsigned splitJobs =
        opts.shardedJobs ? opts.shardedJobs
                         : std::max(2u, std::min(hwThreads, 4u));
    const SplitScaled split = measureSplitScaled(opts, splitJobs);
    std::printf("scaled split plan (pcie %.0f ns, mesh %.0f ns, "
                "jobs=%u): %.0f packets/wall-sec, "
                "%.1f events/packet\n",
                split.pcieNs, split.meshNs, split.jobs,
                split.rate.perSec(), split.rate.eventsPerPacket());
    std::printf("split deterministic: %s\n",
                split.deterministic
                    ? "yes (stats+trace byte-identical across jobs)"
                    : "NO");
    if (!opts.artifactsPrefix.empty()) {
        writeArtifact(opts.artifactsPrefix + ".stats.json",
                      split.stats);
        writeArtifact(opts.artifactsPrefix + ".trace.json",
                      split.trace);
        std::printf("artifacts: %s.{stats,trace}.json\n",
                    opts.artifactsPrefix.c_str());
    }

    // Fig10-style sweep, serial vs thread pool.
    std::vector<bench::SweepCase> cases;
    bool deterministic = true;
    double serialSec = 0, parallelSec = 0, speedup = 0;
    std::uint64_t packets = 0;
    if (full) {
        cases = sweepCases();
        bench::applySeed(cases, opts);
        std::printf("\nsweep: %zu fig10-style configs\n", cases.size());

        const auto serialStart = Clock::now();
        const auto serial = bench::runSweepSingleBurst(cases, 1);
        serialSec = secondsSince(serialStart);

        const auto parallelStart = Clock::now();
        const auto parallel =
            bench::runSweepSingleBurst(cases, sweepJobs);
        parallelSec = secondsSince(parallelStart);

        deterministic = sameResults(serial, parallel);
        speedup = parallelSec > 0 ? serialSec / parallelSec : 0;
        packets = sweepPackets(serial);

        std::printf("jobs=1:  %.3f s\njobs=%u: %.3f s  "
                    "(speedup %.2fx)\n",
                    serialSec, sweepJobs, parallelSec, speedup);
        std::printf("deterministic: %s\n",
                    deterministic ? "yes (bit-identical totals)"
                                  : "NO");
        if (hwThreads == 1) {
            std::printf("NOTICE: single hardware thread — parallel "
                        "speedup is unmeasurable on this host "
                        "(speedup fields omitted from the JSON)\n");
        }
    }

    {
        std::ofstream ofs(opts.jsonPath);
        if (!ofs)
            sim::fatal("cannot open '%s'", opts.jsonPath.c_str());
        stats::JsonWriter w(ofs);
        w.beginObject();
        w.field("bench", "perf_smoke");
        w.field("hw_threads", hwThreads);
        w.beginObject("build");
        w.field("build_type", IDIO_BUILD_TYPE);
        w.field("check_invariants", IDIO_CHECK_INVARIANTS != 0);
        w.field("trace", IDIO_TRACE != 0);
        w.field("scheduler_backend",
                sim::EventQueue::backendName(
                    sim::EventQueue::defaultBackend()));
        w.field("revision", IDIO_GIT_REVISION);
        w.end();
        if (full) {
            w.field("micro_reps", std::uint64_t(microReps));
            w.beginObject("micros");
            for (const auto &m : micros) {
                w.beginObject(m.name);
                w.field("ops", m.ops);
                w.field("wallSec", m.wallSec);
                w.field("nsPerOp", m.nsPerOp());
                w.field("opsPerSec", m.opsPerSec());
                w.end();
            }
            w.end();
            w.beginObject("single_run");
            w.field("packets", single.packets);
            w.field("wallSec", single.wallSec);
            w.field("packets_per_wall_sec", single.perSec());
            w.field("events", single.events);
            w.field("events_per_packet", single.eventsPerPacket());
            w.end();
        }
        w.beginObject("scaled");
        w.field("cores", std::uint64_t(32));
        w.field("rx_queues", std::uint64_t(32));
        w.field("flows", std::uint64_t(1u << 20));
        // The headline rate follows the requested mode: the split
        // plan under an explicit --sharded-jobs (what the CI scaling
        // job sweeps), the legacy fused unsharded run otherwise (the
        // committed-trajectory baseline).
        const bool headlineSplit = opts.shardedJobs || !full;
        const PacketRate &headline =
            headlineSplit ? split.rate : scaledPlain;
        w.field("packets", headline.packets);
        w.field("packets_per_wall_sec", headline.perSec());
        w.field("events", headline.events);
        w.field("events_per_packet", headline.eventsPerPacket());
        if (full) {
            w.field("sharded_packets_per_wall_sec",
                    scaledShardedRate.perSec());
            w.field("sharded_deterministic", shardedDeterministic);
        }
        w.beginObject("split");
        w.field("link_pcie_ns", split.pcieNs);
        w.field("link_mesh_ns", split.meshNs);
        w.field("jobs", split.jobs);
        w.field("packets", split.rate.packets);
        w.field("packets_per_wall_sec", split.rate.perSec());
        w.field("events", split.rate.events);
        w.field("events_per_packet", split.rate.eventsPerPacket());
        w.field("deterministic", split.deterministic);
        w.end();
        w.end();
        if (full) {
            w.beginObject("tenant");
            w.beginObject("ddio");
            w.field("rpc_p99_us", tenantDdio.rpcP99Us);
            w.field("rpc_p999_us", tenantDdio.rpcP999Us);
            w.field("batch_p99_us", tenantDdio.batchP99Us);
            w.end();
            w.beginObject("ioca");
            w.field("rpc_p99_us", tenantIoca.rpcP99Us);
            w.field("rpc_p999_us", tenantIoca.rpcP999Us);
            w.field("batch_p99_us", tenantIoca.batchP99Us);
            w.field("reallocations", tenantIoca.reallocations);
            w.end();
            w.end();
        }
        if (full) {
            w.beginObject("sweep");
            w.field("configs", std::uint64_t(cases.size()));
            w.field("jobs", sweepJobs);
            w.field("packets", packets);
            w.field("serialWallSec", serialSec);
            w.field("packets_per_wall_sec_serial",
                    serialSec > 0 ? double(packets) / serialSec : 0);
            // On a single-thread host the parallel leg only measures
            // oversubscription; publishing a "speedup" there would
            // poison the committed trajectory, so the fields are
            // omitted (the determinism check above still ran).
            if (hwThreads > 1) {
                w.field("parallelWallSec", parallelSec);
                w.field("packets_per_wall_sec_parallel",
                        parallelSec > 0 ? double(packets) / parallelSec
                                        : 0);
                w.field("speedup", speedup);
            } else {
                w.field("speedup_skipped_single_thread", true);
            }
            w.field("deterministic", deterministic);
            w.end();
        }
        w.end();
        ofs << "\n";
    }
    std::printf("\nwrote %s\n", opts.jsonPath.c_str());

    // Determinism (sweep, fused sharded, and split plan) is a hard
    // failure; the parallel speedup is judged only where the host can
    // actually run threads in parallel.
    return (deterministic && shardedDeterministic &&
            split.deterministic)
               ? 0
               : 1;
}
