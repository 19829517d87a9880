/**
 * @file
 * The benchmark's workloads and the repetition runner.
 *
 * A workload is a fixed list of simulated systems. One repetition
 * builds, starts and runs each of them in turn, cold, on the calling
 * thread. Every input is derived from the benchmark seed: the seed
 * becomes each system's root RNG seed and draws each traffic
 * generator's offered rate from a narrow band just under its nominal
 * rate, so a new seed shifts every packet arrival while leaving the
 * amount of work nearly unchanged.
 */

#ifndef IDIO_PERFBENCH_DRIVER_WORKLOADS_HH
#define IDIO_PERFBENCH_DRIVER_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "ledger.hh"
#include "spans.hh"

namespace perfbench
{

/** How long one system runs. */
enum class RunMode
{
    Burst,   ///< until every packet of the single burst is retired
    Horizon, ///< for a fixed stretch of simulated time
};

/** One simulated system of a workload. */
struct SystemPlan
{
    std::string label;
    harness::ExperimentConfig cfg;
    RunMode mode = RunMode::Burst;
    sim::Tick horizon = 0; ///< Horizon mode only

    /** Latency population: NFs [0, latencyNfs); 0 means every NF. */
    std::uint32_t latencyNfs = 0;
};

struct Workload
{
    std::string name;
    std::string why;
    std::vector<SystemPlan> systems;
};

/** Names of every workload, in the order the benchmark lists them. */
std::vector<std::string> workloadNames();

/**
 * Build workload @p name for @p seed.
 * @return false when no workload has that name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** Everything one repetition measured and checked. */
struct RepResult
{
    double setupNs = 0.0; ///< construct + start, all systems
    double simNs = 0.0;   ///< run loops (runFor + totals), all systems

    harness::Totals totals; ///< summed over the systems
    std::uint64_t generated = 0;
    std::uint64_t events = 0;

    /** Latency samples of the workload's population, ticks. */
    std::vector<std::uint64_t> latency;

    /** Hash of every system's stats JSON and totals. */
    std::uint64_t digest = 0;

    /** Correctness failures; empty when the repetition is good. */
    std::vector<std::string> errors;

    /** @{ Traced repetitions only. */
    std::size_t spanBegin = 0;
    std::size_t spanEnd = 0;
    Snapshot counters{}; ///< counter deltas over the run loops
    /** @} */
};

/** Per-repetition switches. */
struct RepOptions
{
    /** Record spans and counter deltas (nullptr or disabled: off). */
    SpanRecorder *spans = nullptr;

    /**
     * Probe a clone of the first system halfway through its run and
     * store the result here (needs enabled spans).
     */
    ProbeResult *probe = nullptr;
};

/** Run every system of @p w once. */
RepResult runRep(const Workload &w, const RepOptions &opts);

} // namespace perfbench

#endif // IDIO_PERFBENCH_DRIVER_WORKLOADS_HH
