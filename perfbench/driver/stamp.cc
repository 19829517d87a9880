/**
 * @file
 * Build stamp and parallelism probe.
 */

#include "stamp.hh"

#include <sched.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "sim/event_queue.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

#define PERFBENCH_STR2(x) #x
#define PERFBENCH_STR(x) PERFBENCH_STR2(x)

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

/**
 * Host ns for a fixed mix of independent integer streams and a small
 * sort: code with the instruction-level parallelism that a busy
 * sibling on the same physical core takes away.
 */
std::int64_t
quietKernelNs()
{
    static const std::vector<std::uint32_t> keys = [] {
        std::vector<std::uint32_t> v(2048);
        std::uint64_t x = 1;
        for (auto &k : v)
            k = static_cast<std::uint32_t>(x = spin(1, x));
        return v;
    }();
    const std::int64_t t0 = nowNs();
    std::uint64_t s[4] = {1, 2, 3, 4};
    for (int i = 0; i < 100000; ++i)
        for (std::uint64_t &x : s)
            x = spin(1, x);
    std::vector<std::uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    const std::int64_t t1 = nowNs();
    volatile std::uint64_t keep = s[0] + s[1] + s[2] + s[3] + sorted[0];
    (void)keep;
    return t1 - t0;
}

double
timedSpinMs(unsigned threads, std::uint64_t iters)
{
    std::vector<std::uint64_t> sink(threads);
    const std::int64_t t0 = nowNs();
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(
                [&sink, t, iters] { sink[t] = spin(iters, t + 1); });
    } // jthreads join here
    const std::int64_t t1 = nowNs();
    volatile std::uint64_t keep = 0;
    for (std::uint64_t v : sink)
        keep = keep + v;
    return static_cast<double>(t1 - t0) / 1e6;
}

} // anonymous namespace

std::string
BuildStamp::refusal() const
{
    if (buildType != "Release")
        return "build type is " + buildType + ", not Release";
    if (!ndebug)
        return "NDEBUG is not defined";
    if (checkInvariants == "1")
        return "the invariant checker is compiled in";
    if (trace == "1")
        return "the packet tracer is compiled in";
    return "";
}

std::string
BuildStamp::json() const
{
    std::ostringstream os;
    os << "{\"build_type\": " << jsonString(buildType)
       << ", \"ndebug\": " << (ndebug ? "true" : "false")
       << ", \"IDIO_CHECK_INVARIANTS\": " << jsonString(checkInvariants)
       << ", \"IDIO_TRACE\": " << jsonString(trace)
       << ", \"scheduler\": " << jsonString(scheduler)
       << ", \"compiler\": " << jsonString(compiler)
       << ", \"revision\": " << jsonString(revision) << "}";
    return os.str();
}

BuildStamp
buildStamp(const std::string &revision)
{
    BuildStamp s;
    s.buildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    s.ndebug = true;
#endif
#ifdef IDIO_CHECK_INVARIANTS
    s.checkInvariants = std::string(PERFBENCH_STR(IDIO_CHECK_INVARIANTS));
#else
    s.checkInvariants = std::string("unset");
#endif
#ifdef IDIO_TRACE
    s.trace = std::string(PERFBENCH_STR(IDIO_TRACE));
#else
    s.trace = std::string("unset");
#endif
    s.scheduler =
        sim::EventQueue::backendName(sim::EventQueue::defaultBackend());
#if defined(__clang__)
    s.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    s.compiler = "gcc " __VERSION__;
#else
    s.compiler = "unknown";
#endif
    s.compiler += std::string(" ") + PERFBENCH_CXX_FLAGS;
    s.revision = revision.empty() ? "unknown" : revision;
    return s;
}

std::string
ParallelismProbe::json() const
{
    std::ostringstream os;
    os << "{\"threads\": " << threads
       << ", \"one_thread_ms\": " << formatNumber(oneThreadMs)
       << ", \"all_threads_ms\": " << formatNumber(allThreadsMs)
       << ", \"effective\": " << formatNumber(effective) << "}";
    return os.str();
}

ParallelismProbe
probeParallelism()
{
    constexpr std::uint64_t iters = 20'000'000; // ~20-40 ms per thread
    ParallelismProbe p;
    p.threads = std::max(1u, std::thread::hardware_concurrency());
    p.oneThreadMs = timedSpinMs(1, iters);
    p.allThreadsMs = timedSpinMs(p.threads, iters);
    if (p.allThreadsMs > 0.0)
        p.effective = p.threads * p.oneThreadMs / p.allThreadsMs;
    return p;
}

int
pinToQuietestCpu()
{
    // The CPUs first allowed, kept so later calls can leave a pin.
    static const std::optional<cpu_set_t> allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        return sched_getaffinity(0, sizeof set, &set) == 0
                   ? std::optional<cpu_set_t>(set)
                   : std::nullopt;
    }();
    if (!allowed)
        return -1;
    int best = -1;
    std::int64_t bestNs = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &*allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            continue;
        const std::int64_t ns = std::min(quietKernelNs(), quietKernelNs());
        if (best < 0 || ns < bestNs) {
            best = cpu;
            bestNs = ns;
        }
    }
    cpu_set_t pin;
    CPU_ZERO(&pin);
    if (best >= 0)
        CPU_SET(best, &pin);
    sched_setaffinity(0, sizeof pin, best >= 0 ? &pin : &*allowed);
    return best;
}

} // namespace perfbench
