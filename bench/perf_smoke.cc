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
 *  - a 32-core / 32-RX-queue scaled run,
 *  - a fig10-style config sweep run serially and on a thread pool,
 *    with a bit-identical-results determinism check.
 *
 * The JSON output (default BENCH_perf.json) is committed periodically
 * as the repo's performance trajectory and is compared by
 * tools/bench_compare.py in CI. Its "build" object records the build
 * type, the IDIO_CHECK_INVARIANTS and IDIO_TRACE settings and the git
 * revision; bench_compare refuses to compare files whose build
 * configurations differ. Wall-clock
 * numbers are only comparable across runs on similar hosts;
 * `effective_parallelism` records how parallel the host actually ran:
 * fixed integer work timed on one thread and on every hardware thread
 * at once, effective = threads x one / all. A host that reports four
 * threads may deliver anywhere from ~1 to ~3.3 of them. The speedup
 * criterion needs effective >= 1.5; below it the speedup fields are
 * omitted from the JSON and a notice is printed instead.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"
#include "net/flow.hh"
#include "sim/event_queue.hh"
#include "tenant_scenario.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Fixed integer work; the result defeats dead-code elimination. */
std::uint64_t
spin(std::uint64_t iters, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Wall seconds for @p threads threads each running spin(@p iters). */
double
timedSpinSec(unsigned threads, std::uint64_t iters)
{
    std::vector<std::uint64_t> sink(threads);
    const auto start = Clock::now();
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(
                [&sink, t, iters] { sink[t] = spin(iters, t + 1); });
    } // jthreads join here
    const double sec = secondsSince(start);
    volatile std::uint64_t keep = 0;
    for (std::uint64_t v : sink)
        keep = keep + v;
    return sec;
}

/**
 * Threads' worth of work the host actually ran at once: threads x
 * (one thread's time) / (time for all of them together).
 */
double
effectiveParallelism(unsigned threads)
{
    constexpr std::uint64_t iters = 20'000'000; // ~20-40 ms a thread
    const double one = timedSpinSec(1, iters);
    const double all = timedSpinSec(threads, iters);
    return all > 0 ? threads * one / all : 1.0;
}

/** Below this, a parallel speedup is unmeasurable on the host. */
constexpr double minParallelismForSpeedup = 1.5;

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
     * Total events processed by the run — a host-independent work
     * counter, unlike the wall-clock rate. CI gates on
     * events_per_packet where wall time is noise.
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

/** Run one single-burst experiment wall-clocked. */
PacketRate
timedBurst(const harness::ExperimentConfig &config)
{
    harness::ExperimentConfig cfg = config;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst

    harness::TestSystem sys(cfg);
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
    return PacketRate{sys.totals().processedPackets,
                      secondsSince(start),
                      sys.simulation().totalProcessedEvents()};
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

    std::printf("=== perf_smoke: simulator host-side performance ===\n");
    std::printf("build: %s, invariant checker %s, tracer %s, "
                "revision %s\n",
                IDIO_BUILD_TYPE, IDIO_CHECK_INVARIANTS ? "on" : "off",
                IDIO_TRACE ? "on" : "off", IDIO_GIT_REVISION);
    const double parallelism = effectiveParallelism(hwThreads);
    std::printf("host threads: %u (effective %.2f), sweep jobs: %u\n\n",
                hwThreads, parallelism, sweepJobs);

    const unsigned microReps = std::max(1u, opts.microReps);
    const std::vector<MicroResult> micros = {
        minOfN([] { return microEventQueueOneShot(2'000'000); },
               microReps),
        minOfN([] { return microEventQueueSquashCompact(2'000'000); },
               microReps),
        minOfN([] { return microToeplitzHash(2'000'000); }, microReps),
        minOfN([] { return microCacheStreamingMiss(2'000'000); },
               microReps),
        minOfN([] { return microCachePcieWrite(2'000'000); },
               microReps),
    };
    std::printf("micros: min of %u reps (one warm-up pass)\n",
                microReps);
    for (const auto &m : micros) {
        std::printf("%-26s %8.1f ns/op  %12.0f ops/s\n", m.name,
                    m.nsPerOp(), m.opsPerSec());
    }

    // Headline metric: simulated packets retired per wall second on
    // the default 2-core single-burst config.
    harness::ExperimentConfig defaultCfg;
    defaultCfg.numNfs = 2;
    defaultCfg.nfKind = harness::NfKind::TouchDrop;
    defaultCfg.rateGbps = 100.0;
    defaultCfg.applyPolicy(idio::Policy::Idio);
    if (opts.seed)
        defaultCfg.seed = *opts.seed;
    const PacketRate single = timedBurst(defaultCfg);
    std::printf("\nsingle run: %llu packets in %.3f s  "
                "(%.0f packets/wall-sec, %.1f events/packet)\n",
                (unsigned long long)single.packets, single.wallSec,
                single.perSec(), single.eventsPerPacket());

    // Scaled machine: the paper's 32-core shape on one event queue.
    auto scaledCfg = scaledConfig();
    if (opts.seed)
        scaledCfg.seed = *opts.seed;
    const PacketRate scaled = timedBurst(scaledCfg);
    std::printf("scaled 32-core: %.0f packets/wall-sec, "
                "%.1f events/packet\n",
                scaled.perSec(), scaled.eventsPerPacket());

    // Tenant-mix headline: simulated per-tenant tail latency of the
    // canonical noisy-neighbor scenario under plain DDIO sharing vs
    // the IOCA-style CAT controller, plus the controller's
    // reallocation count. Deterministic simulated numbers: any move
    // is a behaviour change, and bench_compare gates them hard.
    const TenantHeadline tenantDdio =
        measureTenantScheme(bench::tenantSchemes[0], opts);
    const TenantHeadline tenantIoca =
        measureTenantScheme(bench::tenantSchemes[2], opts);
    std::printf("tenant mix: rpc p99 %.2f us (ddio) vs %.2f us "
                "(ioca, %llu way reallocations)\n",
                tenantDdio.rpcP99Us, tenantIoca.rpcP99Us,
                (unsigned long long)tenantIoca.reallocations);

    // Fig10-style sweep, serial vs thread pool.
    auto cases = sweepCases();
    bench::applySeed(cases, opts);
    std::printf("\nsweep: %zu fig10-style configs\n", cases.size());

    const auto serialStart = Clock::now();
    const auto serial = bench::runSweepSingleBurst(cases, 1);
    const double serialSec = secondsSince(serialStart);

    const auto parallelStart = Clock::now();
    const auto parallel = bench::runSweepSingleBurst(cases, sweepJobs);
    const double parallelSec = secondsSince(parallelStart);

    const bool deterministic = sameResults(serial, parallel);
    const double speedup =
        parallelSec > 0 ? serialSec / parallelSec : 0;
    const std::uint64_t packets = sweepPackets(serial);

    std::printf("jobs=1:  %.3f s\njobs=%u: %.3f s  (speedup %.2fx)\n",
                serialSec, sweepJobs, parallelSec, speedup);
    std::printf("deterministic: %s\n",
                deterministic ? "yes (bit-identical totals)" : "NO");
    if (parallelism < minParallelismForSpeedup) {
        std::printf("NOTICE: effective parallelism %.2f < %.1f — "
                    "parallel speedup is unmeasurable on this host "
                    "(speedup fields omitted from the JSON)\n",
                    parallelism, minParallelismForSpeedup);
    }

    {
        std::ofstream ofs(opts.jsonPath);
        if (!ofs)
            sim::fatal("cannot open '%s'", opts.jsonPath.c_str());
        stats::JsonWriter w(ofs);
        w.beginObject();
        w.field("bench", "perf_smoke");
        w.field("effective_parallelism", parallelism);
        w.beginObject("build");
        w.field("build_type", IDIO_BUILD_TYPE);
        w.field("check_invariants", IDIO_CHECK_INVARIANTS != 0);
        w.field("trace", IDIO_TRACE != 0);
        w.field("revision", IDIO_GIT_REVISION);
        w.end();
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
        w.beginObject("scaled");
        w.field("cores", std::uint64_t(32));
        w.field("rx_queues", std::uint64_t(32));
        w.field("flows", std::uint64_t(1u << 20));
        w.field("packets", scaled.packets);
        w.field("packets_per_wall_sec", scaled.perSec());
        w.field("events", scaled.events);
        w.field("events_per_packet", scaled.eventsPerPacket());
        w.end();
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
        w.beginObject("sweep");
        w.field("configs", std::uint64_t(cases.size()));
        w.field("jobs", sweepJobs);
        w.field("packets", packets);
        w.field("serialWallSec", serialSec);
        w.field("packets_per_wall_sec_serial",
                serialSec > 0 ? double(packets) / serialSec : 0);
        // On a host that cannot run threads in parallel the parallel
        // leg only measures oversubscription; publishing a "speedup"
        // there would poison the committed trajectory, so the fields
        // are omitted (the determinism check above still ran).
        if (parallelism >= minParallelismForSpeedup) {
            w.field("parallelWallSec", parallelSec);
            w.field("packets_per_wall_sec_parallel",
                    parallelSec > 0 ? double(packets) / parallelSec : 0);
            w.field("speedup", speedup);
        } else {
            w.field("speedup_skipped_low_parallelism", true);
        }
        w.field("deterministic", deterministic);
        w.end();
        w.end();
        ofs << "\n";
    }
    std::printf("\nwrote %s\n", opts.jsonPath.c_str());

    // Sweep determinism is a hard failure; the parallel speedup is
    // judged only where the host can actually run threads in parallel.
    return deterministic ? 0 : 1;
}
