/**
 * @file
 * What a result was measured on: the build configuration of the
 * simulator library and a measured effective-parallelism figure for
 * the host.
 */

#ifndef IDIO_PERFBENCH_DRIVER_STAMP_HH
#define IDIO_PERFBENCH_DRIVER_STAMP_HH

#include <string>

namespace perfbench
{

/** Build configuration the benchmark binary was compiled with. */
struct BuildStamp
{
    std::string buildType;
    bool ndebug = false;
    std::string checkInvariants; ///< "0", "1" or "unset"
    std::string trace;           ///< "0", "1" or "unset"
    std::string scheduler;
    std::string compiler;
    std::string revision;

    /**
     * Empty when the build is a release build with the invariant
     * checker and the packet tracer compiled out; otherwise why not.
     * Results from any other build are refused.
     */
    std::string refusal() const;

    /** One-line JSON object with every field. */
    std::string json() const;
};

/** The stamp of this binary; @p revision names the source tree. */
BuildStamp buildStamp(const std::string &revision);

/**
 * Effective parallelism of the host: a fixed amount of integer work is
 * timed on one thread, then the same per-thread work on every hardware
 * thread at once. effective = threads * oneThread / allThreads, so a
 * host that runs the threads truly in parallel reports ~threads and a
 * host that time-slices them onto one core reports ~1.
 */
struct ParallelismProbe
{
    unsigned threads = 1;
    double oneThreadMs = 0.0;
    double allThreadsMs = 0.0;
    double effective = 1.0;

    std::string json() const;
};

ParallelismProbe probeParallelism();

/**
 * Pin the calling thread to the CPU, among those it may run on, that
 * runs a short fixed kernel fastest right now, and return that CPU (-1
 * when the affinity cannot be read or set). On a shared host a CPU's
 * speed swings by up to a third from one second to the next, with
 * whatever else runs on its physical core; a repetition of a few
 * hundred milliseconds pinned just after this check mostly runs on an
 * uncontended core.
 */
int pinToQuietestCpu();

} // namespace perfbench

#endif // IDIO_PERFBENCH_DRIVER_STAMP_HH
