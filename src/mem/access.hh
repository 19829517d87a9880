/**
 * @file
 * Memory access descriptors shared across the hierarchy.
 */

#ifndef IDIO_MEM_ACCESS_HH
#define IDIO_MEM_ACCESS_HH

#include <cstdint>

#include "sim/types.hh"

namespace mem
{

/** Direction of a CPU memory access. */
enum class AccessType : std::uint8_t
{
    Read,
    Write,
};

/** Hierarchy level an access was satisfied from. */
enum class HitLevel : std::uint8_t
{
    L1 = 0,
    MLC,
    LLC,
    DRAM,
};

/** Printable name of a HitLevel. */
const char *hitLevelName(HitLevel level);

/** Outcome of one CPU cacheline access. */
struct AccessResult
{
    /** Latency charged to the requesting core, in ticks. */
    sim::Tick latency = 0;

    /** Level the line was found in. */
    HitLevel level = HitLevel::L1;
};

} // namespace mem

#endif // IDIO_MEM_ACCESS_HH
