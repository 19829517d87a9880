/**
 * @file
 * Intel Ethernet Flow Director model (paper Sec. II-C).
 *
 * Flow Director steers incoming packets to the core running their
 * consumer through EP (Externally Programmed) exact 5-tuple rules
 * installed by the administrator ("perfect match" filters). The
 * hardware's other mode, ATR (Application Targeting Routing), learns
 * from outbound traffic; no workload here transmits on the flows it
 * receives, so it is not modelled.
 *
 * Packets matching no rule fall back to RSS. Two RSS variants exist:
 * the legacy direct modulus (hash % numCores, the historical default,
 * kept byte-for-byte) and a real indirection table (RETA) of
 * power-of-two size whose entries map hash buckets to RX queues —
 * the Niantic/Fortville model, enabled by passing rssTableEntries > 0.
 */

#ifndef IDIO_NIC_FLOW_DIRECTOR_HH
#define IDIO_NIC_FLOW_DIRECTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/flow.hh"
#include "sim/types.hh"

namespace nic
{

/**
 * Flow-to-core steering table.
 */
class FlowDirector
{
  public:
    /**
     * @param numCores RSS fallback modulus (legacy mode) and default
     *                 queue count for the RETA fill.
     * @param rssTableEntries RETA size (power of two); 0 keeps the
     *                        legacy direct-modulus RSS fallback.
     * @param rssQueues Queues the default RETA fill round-robins
     *                  over; 0 means numCores, more is fatal.
     */
    explicit FlowDirector(std::uint32_t numCores,
                          std::uint32_t rssTableEntries = 0,
                          std::uint32_t rssQueues = 0);

    /** Install an EP perfect-match rule; @p core must be < numCores. */
    void addRule(const net::FiveTuple &flow, sim::CoreId core);

    /**
     * Destination core for an RX packet: its EP rule, else its RSS
     * queue. An EP hit does not hash at all. Always < numCores.
     */
    sim::CoreId lookup(const net::FiveTuple &flow) const;

    /** Number of installed EP rules. */
    std::size_t ruleCount() const { return rules.size(); }

    /**
     * RSS queue for @p flow, ignoring EP rules: the pure hash →
     * RETA (or legacy modulus) mapping. This is what a multi-queue
     * NIC uses for ring selection.
     */
    std::uint32_t rssQueue(const net::FiveTuple &flow) const;

    /**
     * Overwrite the RETA (lengths must match; RETA mode only). Every
     * entry must be < numCores: lookup() returns it as a core.
     */
    void setIndirection(const std::vector<std::uint32_t> &table);

    /** The RETA; empty in legacy direct-modulus mode. */
    const std::vector<std::uint32_t> &indirection() const
    {
        return reta;
    }

  private:
    /** Fatal unless @p target names one of the numCores cores. */
    void checkTarget(const char *what, std::uint32_t target) const;

    std::uint32_t numCores;
    std::unordered_map<net::FiveTuple, sim::CoreId, net::FiveTupleHash>
        rules;
    std::vector<std::uint32_t> reta; // empty = legacy modulus
};

} // namespace nic

#endif // IDIO_NIC_FLOW_DIRECTOR_HH
