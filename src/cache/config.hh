/**
 * @file
 * Cache hierarchy configuration (paper Table I defaults).
 */

#ifndef IDIO_CACHE_CONFIG_HH
#define IDIO_CACHE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "sim/types.hh"

namespace mem
{
class PhysAllocator;
}

namespace cache
{

/** Geometry and latency of one cache level. */
struct LevelConfig
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t latencyCycles = 1;
};

/**
 * Full hierarchy configuration. Defaults reproduce paper Table I:
 * aarch64-style cores at 3 GHz, 64 KB 2-way L1D (2 CC), 1 MB 8-way MLC
 * (12 CC), 1.5 MB/core 12-way non-inclusive LLC (24 CC), DDR4-3200.
 */
struct HierarchyConfig
{
    std::uint32_t numCores = 2;
    double cpuFreqGHz = 3.0;

    LevelConfig l1{64 * 1024, 2, 2};
    LevelConfig mlc{1024 * 1024, 8, 12};

    /** LLC size is per core; total = llcPerCore.sizeBytes * numCores. */
    LevelConfig llcPerCore{1536 * 1024, 12, 24};

    /** Number of LLC ways DDIO write-allocates into (Intel default 2). */
    std::uint32_t ddioWays = 2;

    /**
     * Per-core MLC size overrides (e.g.\ the paper shrinks the
     * LLCAntagonist core's MLC to 256 KB). Empty = no override.
     */
    std::vector<std::uint64_t> mlcSizeOverride;

    /**
     * Per-core LLC allocation way masks for MLC-writeback insertions
     * (Intel CAT style; used by the Fig. 4 `*_1way` runs). Empty =
     * every core may allocate into all ways.
     */
    std::vector<WayMask> llcAllocMask;

    /** Replacement policy name for all levels. */
    std::string replacement = "lru";

    /**
     * Excl-MLC directory capacity as a multiple of total MLC lines
     * (snoop-filter coverage factor).
     */
    double directoryCoverage = 1.5;

    std::uint32_t directoryAssoc = 16;

    /** DRAM device latency, ns. */
    double dramLatencyNs = 60.0;

    /** DRAM peak bandwidth, GB/s. */
    double dramBandwidthGBps = 60.0;

    /**
     * Page-attribute oracle for the self-invalidate instruction; when
     * null every address is treated as invalidatable (tests override).
     */
    const mem::PhysAllocator *pageAttributes = nullptr;

    /** Ticks per CPU cycle. */
    sim::Tick
    cyclePeriod() const
    {
        return sim::cyclePeriod(cpuFreqGHz);
    }

    /** Convert a latency in cycles to ticks. */
    sim::Tick
    cyclesToTicks(std::uint32_t cycles) const
    {
        return cycles * cyclePeriod();
    }

    /** Total LLC capacity in bytes. */
    std::uint64_t
    llcSizeBytes() const
    {
        return llcPerCore.sizeBytes * numCores;
    }

    /** Effective MLC size for @p core. */
    std::uint64_t
    mlcSize(std::uint32_t core) const
    {
        if (core < mlcSizeOverride.size() && mlcSizeOverride[core])
            return mlcSizeOverride[core];
        return mlc.sizeBytes;
    }

    /** Effective LLC allocation mask for @p core. */
    WayMask
    coreLlcMask(std::uint32_t core) const
    {
        if (core < llcAllocMask.size() && llcAllocMask[core])
            return llcAllocMask[core];
        return ~WayMask(0);
    }
};

} // namespace cache

#endif // IDIO_CACHE_CONFIG_HH
