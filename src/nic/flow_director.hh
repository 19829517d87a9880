/**
 * @file
 * Intel Ethernet Flow Director model (paper Sec. II-C).
 *
 * Flow Director steers incoming packets to the core running their
 * consumer. Two modes are modelled:
 *
 *  - EP (Externally Programmed): exact 5-tuple rules installed by the
 *    administrator ("perfect match" filters).
 *  - ATR (Application Targeting Routing): a hashed Filter Table (8k
 *    entries by default) populated by sampling outbound traffic; RX
 *    lookups hash the 5-tuple and read the learned destination core.
 *
 * Packets matching neither fall back to RSS. Two RSS variants exist:
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
     * @param filterTableEntries ATR table size (power of two).
     * @param rssTableEntries RETA size (power of two); 0 keeps the
     *                        legacy direct-modulus RSS fallback.
     * @param rssQueues Queues the default RETA fill round-robins
     *                  over; 0 means numCores, more is fatal.
     */
    explicit FlowDirector(std::uint32_t numCores,
                          std::uint32_t filterTableEntries = 8192,
                          std::uint32_t rssTableEntries = 0,
                          std::uint32_t rssQueues = 0);

    /** Install an EP perfect-match rule; @p core must be < numCores. */
    void addRule(const net::FiveTuple &flow, sim::CoreId core);

    /** Remove an EP rule; no-op when absent. */
    void removeRule(const net::FiveTuple &flow);

    /**
     * ATR learning: record that @p core transmitted on @p flow, so RX
     * traffic of the same flow is steered back to it. @p core must be
     * < numCores.
     */
    void learn(const net::FiveTuple &flow, sim::CoreId core);

    /**
     * Destination core for an RX packet: its EP rule, else its ATR
     * entry, else its RSS queue. Hashes the flow at most once; an EP
     * hit does not hash at all. Always < numCores.
     */
    sim::CoreId lookup(const net::FiveTuple &flow) const;

    /** Number of installed EP rules. */
    std::size_t ruleCount() const { return rules.size(); }

    /** Number of populated ATR entries. */
    std::size_t learnedCount() const;

    /**
     * RSS queue for @p flow, ignoring EP/ATR state: the pure hash →
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
    /** The RETA (or legacy modulus) step for a Toeplitz @p hash. */
    std::uint32_t rssQueueForHash(std::uint32_t hash) const;

    /** Fatal unless @p target names one of the numCores cores. */
    void checkTarget(const char *what, std::uint32_t target) const;

    std::uint32_t numCores;
    std::uint32_t tableSize;
    std::unordered_map<net::FiveTuple, sim::CoreId, net::FiveTupleHash>
        rules;
    std::vector<std::int32_t> filterTable; // -1 = unpopulated
    std::vector<std::uint32_t> reta;       // empty = legacy modulus
};

} // namespace nic

#endif // IDIO_NIC_FLOW_DIRECTOR_HH
