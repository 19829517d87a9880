/**
 * @file
 * PrivateCache implementation.
 */

#include "private_cache.hh"

#include "sim/simulation.hh"

namespace cache
{

PrivateCache::PrivateCache(sim::Simulation &simulation,
                           const std::string &name,
                           std::uint64_t sizeBytes, std::uint32_t assoc,
                           const std::string &replacement)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      hits(statGroup, "hits", "demand hits"),
      misses(statGroup, "misses", "demand misses"),
      fills(statGroup, "fills", "lines installed"),
      prefetchFills(statGroup, "prefetchFills",
                    "lines installed by IDIO prefetch hints"),
      writebacks(statGroup, "writebacks",
                 "dirty evictions sent to the next level"),
      cleanEvictions(statGroup, "cleanEvictions",
                     "clean victims inserted into the next level"),
      pcieInvals(statGroup, "pcieInvals",
                 "invalidations caused by inbound PCIe writes"),
      selfInvals(statGroup, "selfInvals",
                 "lines dropped by the self-invalidate instruction"),
      backInvals(statGroup, "backInvals",
                 "invalidations from directory capacity evictions"),
      array(sizeBytes, assoc, parseReplacement(replacement))
{
}

void
PrivateCache::serialize(ckpt::Serializer &s) const
{
    array.serialize(s);
}

void
PrivateCache::unserialize(ckpt::Deserializer &d)
{
    array.unserialize(d);
}

} // namespace cache
