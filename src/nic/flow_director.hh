/**
 * @file
 * Receive steering of one NIC port (paper Sec. II-C).
 *
 * A port is a range of cores: its queue q is polled by core
 * firstCore + q. Steering picks one of the port's own queues for each
 * packet, so the destination core never leaves that range.
 *
 * A one-queue port has nothing to choose: every packet takes queue 0,
 * with no hash and no table lookup. A multi-queue port hashes the
 * 5-tuple (Toeplitz, the default RSS key) into a fixed 128-entry
 * indirection table (RETA) filled round-robin over its queues, the
 * layout drivers program at device init (the Niantic/Fortville
 * model). Flow Director's EP perfect-match rules and ATR learning are
 * not modelled: a workload that needs a flow on a given core gives it
 * a port of its own.
 */

#ifndef IDIO_NIC_FLOW_DIRECTOR_HH
#define IDIO_NIC_FLOW_DIRECTOR_HH

#include <cstdint>
#include <vector>

#include "net/flow.hh"

namespace nic
{

/**
 * Flow-to-queue steering of one port.
 */
class FlowDirector
{
  public:
    /** RETA entries of a multi-queue port (a power of two). */
    static constexpr std::uint32_t retaEntries = 128;

    /**
     * @param numQueues The port's RX queues: at least one, at most
     *                  retaEntries (a queue no entry names would never
     *                  receive).
     */
    explicit FlowDirector(std::uint32_t numQueues);

    /** The port's queue for @p flow; always < numQueues. */
    std::uint32_t
    queueOf(const net::FiveTuple &flow) const
    {
        if (reta.empty())
            return 0;
        return reta[net::toeplitzHash(flow) & (retaEntries - 1)];
    }

  private:
    std::vector<std::uint32_t> reta; ///< empty on a one-queue port
};

} // namespace nic

#endif // IDIO_NIC_FLOW_DIRECTOR_HH
