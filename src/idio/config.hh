/**
 * @file
 * IDIO policy configuration.
 *
 * The paper's evaluation compares five configurations (Fig. 9):
 *  - DDIO: baseline static LLC placement.
 *  - Invalidate: self-invalidating I/O buffers only (M1).
 *  - Prefetch: network-driven MLC prefetching only (M2).
 *  - Static: M1 + M2 with the per-core status register hardcoded to
 *    MLC (prefetching always on).
 *  - IDIO: M1 + M2 governed by the dynamic FSM, plus selective direct
 *    DRAM access (M3).
 */

#ifndef IDIO_IDIO_CONFIG_HH
#define IDIO_IDIO_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "sim/types.hh"

namespace idio
{

/** Control-plane sampling interval (paper Table I: 1 us). */
constexpr sim::Tick controlInterval = sim::oneUs;

/** Control intervals averaged for mlcWBAvg (paper Table I: 8192). */
constexpr std::uint32_t avgWindow = 8192;

/** Named policy presets. */
enum class Policy
{
    Ddio,
    InvalidateOnly,
    PrefetchOnly,
    Static,
    Idio,
};

/** Printable policy name. */
const char *policyName(Policy p);

/**
 * Prefetcher flavour (Sec. V-C plus the paper's suggested
 * improvement).
 */
enum class PrefetcherKind
{
    SimpleQueue, ///< the paper's queued prefetcher
    CpuPaced,    ///< stalls while too many prefetched lines are unread
};

/** Parse a policy name ("ddio", "invalidate", ...); nullopt if unknown. */
std::optional<Policy> tryParsePolicy(const std::string &name);

/**
 * Controller and mechanism knobs. The mechanisms a run enables are
 * functions of the policy (the Fig. 9 presets), not fields of their
 * own, so no combination outside the five configurations can be set.
 */
struct IdioConfig
{
    Policy policy = Policy::Ddio;

    /** M1: software self-invalidates consumed DMA buffers. */
    bool
    selfInvalidate() const
    {
        return policy == Policy::InvalidateOnly ||
               policy == Policy::Static || policy == Policy::Idio;
    }

    /** M2: controller sends MLC prefetch hints. */
    bool
    mlcPrefetch() const
    {
        return policy == Policy::PrefetchOnly ||
               policy == Policy::Static || policy == Policy::Idio;
    }

    /** Use the dynamic FSM (false = status hardcoded to MLC). */
    bool
    dynamicFsm() const
    {
        return policy == Policy::PrefetchOnly || policy == Policy::Idio;
    }

    /** M3: class-1 payloads go straight to DRAM (with M2 in every preset). */
    bool directDram() const { return mlcPrefetch(); }

    /** MLC-pressure threshold, million transactions/second. */
    double mlcThrMtps = 50.0;

    /** Prefetcher flavour. */
    PrefetcherKind prefetcher = PrefetcherKind::SimpleQueue;

    /**
     * CpuPaced: maximum prefetched-but-unconsumed MLC lines (half the
     * 1 MB MLC by default).
     */
    std::uint32_t prefetchWindowLines = 8192;

    /** mlcTHR converted to transactions per control interval. */
    std::uint32_t
    thresholdPerInterval() const
    {
        return static_cast<std::uint32_t>(
            mlcThrMtps * 1e6 * sim::ticksToSeconds(controlInterval));
    }
};

} // namespace idio

#endif // IDIO_IDIO_CONFIG_HH
