/**
 * @file
 * Parallel-sweep smoke: a fig10-style config sweep run serially and
 * on the SweepRunner thread pool.
 *
 * It is the one host-time measurement nothing else makes (perfbench
 * owns end-to-end host time, micro_substrate the micros, and the
 * PinnedWork tests the exact work counters). Exit status:
 *
 *  - 1 if the parallel sweep's results differ from the serial one's
 *    in any bit;
 *  - 1 if the host runs threads in parallel (effective parallelism
 *    >= 1.5) and the parallel sweep is not more than 1.5x faster;
 *  - 0 otherwise. It writes no file.
 *
 * Effective parallelism is measured, not read from the thread count:
 * fixed integer work timed on one thread and on every hardware thread
 * at once, effective = threads x one / all. A host that reports four
 * threads may deliver anywhere from ~1 to ~3.3 of them; below 1.5 a
 * speedup is unmeasurable and only the bit-identity check gates.
 *
 * Options: --jobs=N (sweep width, capped at the host's threads) and
 * --seed=N; any other is a usage error (exit 2).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hh"

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

/** Where it is measurable, the parallel sweep must beat this. */
constexpr double minSpeedup = 1.5;

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

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchOptions(
        argc, argv, bench::flagJobs | bench::flagSeed);
    const unsigned hwThreads = harness::SweepRunner::hardwareJobs();
    // The smoke always contrasts a serial sweep with a parallel one.
    // More workers than hardware threads would only measure context
    // switching (SweepRunner clamps anyway), so cap the request.
    const unsigned sweepJobs =
        std::max(1u, std::min(opts.jobs > 1 ? opts.jobs : 8u,
                              hwThreads));

    std::printf("=== perf_smoke: serial vs parallel sweep ===\n");
    const double parallelism = effectiveParallelism(hwThreads);
    std::printf("host threads: %u (effective %.2f), sweep jobs: %u\n",
                hwThreads, parallelism, sweepJobs);

    auto cases = sweepCases();
    bench::applyCaseOptions(cases, opts);
    std::printf("sweep: %zu fig10-style configs\n", cases.size());

    bench::BenchOptions sweep = opts;
    sweep.jobs = 1;
    const auto serialStart = Clock::now();
    const auto serial = bench::runSweep(cases, sweep);
    const double serialSec = secondsSince(serialStart);

    sweep.jobs = sweepJobs;
    const auto parallelStart = Clock::now();
    const auto parallel = bench::runSweep(cases, sweep);
    const double parallelSec = secondsSince(parallelStart);

    const bool deterministic = serial == parallel;
    const double speedup =
        parallelSec > 0 ? serialSec / parallelSec : 0;

    std::printf("jobs=1:  %.3f s\njobs=%u: %.3f s  (speedup %.2fx)\n",
                serialSec, sweepJobs, parallelSec, speedup);
    std::printf("deterministic: %s\n",
                deterministic ? "yes (bit-identical totals)" : "NO");
    if (!deterministic)
        return 1;
    if (parallelism < minParallelismForSpeedup) {
        std::printf("NOTICE: effective parallelism %.2f < %.1f — "
                    "parallel speedup is unmeasurable on this host; "
                    "not judged\n",
                    parallelism, minParallelismForSpeedup);
        return 0;
    }
    if (speedup <= minSpeedup) {
        std::printf("FAIL: parallel sweep speedup %.2fx <= %.1fx\n",
                    speedup, minSpeedup);
        return 1;
    }
    std::printf("ok: speedup %.2fx > %.1fx\n", speedup, minSpeedup);
    return 0;
}
