/**
 * @file
 * Cache replacement policy identities and way masks.
 *
 * A policy is one enum value, not an object: cache::TagArray keeps
 * each way's replacement state in one byte of its set block (an LRU
 * stamp or an SRRIP RRPV) and dispatches on the kind. Victim
 * selection is *masked*: the LLC restricts DDIO write-allocations to
 * the DDIO ways and CAT-confined cores to their way mask, so a victim
 * must be selected among an arbitrary subset of ways.
 */

#ifndef IDIO_CACHE_REPLACEMENT_HH
#define IDIO_CACHE_REPLACEMENT_HH

#include <cstdint>

namespace cache
{

/** Bitmask over the ways of one set (bit i = way i eligible). */
using WayMask = std::uint64_t;

/** Mask with the low @p n bits set. */
constexpr WayMask
lowWays(std::uint32_t n)
{
    return n >= 64 ? ~WayMask(0) : ((WayMask(1) << n) - 1);
}

/**
 * Replacement policy of a tag array.
 *
 *  - Lru: least recently used; ties (never-touched ways) go to the
 *    lowest way.
 *  - Random: a uniform pick among the candidates from a seeded RNG.
 *  - Srrip: static re-reference interval prediction (SRRIP-HP,
 *    2-bit RRPV). An ablation against LRU in the LLC; DMA bloating
 *    does not depend on the policy and the benches default to LRU.
 */
enum class ReplKind : std::uint8_t
{
    Lru,
    Random,
    Srrip,
};

} // namespace cache

#endif // IDIO_CACHE_REPLACEMENT_HH
