/**
 * @file
 * IDIO classifier (paper Sec. V-A).
 *
 * NIC-resident logic that, for every inbound packet, determines:
 *  (1) the application class from the IPv4 DSCP field,
 *  (2) which DMA write carries the header cacheline,
 *  (3) the destination core: the port's queue q, chosen by its one
 *      steering decision per packet, is polled by core firstCore + q,
 *      and
 *  (4) whether an RX burst is in progress for that core, by keeping a
 *      32-bit per-queue received-byte counter that is reset every 1 us
 *      and compared against rxBurstTHR.
 */

#ifndef IDIO_NIC_CLASSIFIER_HH
#define IDIO_NIC_CLASSIFIER_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "nic/tlp.hh"
#include "sim/periodic.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"
#include "stats/registry.hh"

namespace nic
{

/** Classifier configuration. */
struct ClassifierConfig
{
    /** Burst detection threshold (paper default 10 Gbps). */
    double rxBurstThresholdGbps = 10.0;

    /** Burst counter reset interval. */
    sim::Tick counterInterval = sim::oneUs;

    /**
     * DSCP values at or above this mark application class 1 (long use
     * distance). The paper leaves the DSCP-to-class mapping to the
     * deployment; a single threshold on the 6-bit field is the
     * simplest faithful realisation.
     */
    std::uint8_t class1DscpMin = 32;
};

/**
 * Per-packet classification outcome.
 */
struct Classification
{
    std::uint8_t appClass = 0;
    sim::CoreId destCore = 0;
    bool burstActive = false;
};

/**
 * The NIC-side IDIO classifier.
 */
class IdioClassifier : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param firstCore Core polling the port's queue 0.
     * @param numQueues The port's RX queues; queue q is polled by core
     *                  firstCore + q.
     */
    IdioClassifier(sim::Simulation &simulation, const std::string &name,
                   const ClassifierConfig &config, sim::CoreId firstCore,
                   std::uint32_t numQueues);

    /** Start the periodic counter-reset machinery. */
    void start();

    /**
     * Classify one inbound packet and update the burst counters.
     * Called once per packet when its DMA begins. @p queue is the
     * port's queue the packet was steered to (< numQueues); its
     * polling core is the destination.
     *
     * Burst detection is edge-triggered: the burst bit is raised on
     * the packet whose bytes push the interval counter over
     * rxBurstTHR after a quiet interval — i.e.\ at the *start* of an
     * RX burst, which is what resets the IDIO FSM to the MLC state.
     * Sustained reception keeps crossing the threshold every interval
     * but does not re-signal, so the controller's pressure feedback
     * stays in charge during the burst.
     */
    Classification classify(const net::Packet &pkt, std::uint32_t queue);

    /**
     * Build the TLP metadata for one cacheline of the packet.
     * @param cls The packet's classification.
     * @param isFirstLine True for the DMA write carrying byte 0.
     */
    TlpMeta
    tlpFor(const Classification &cls, bool isFirstLine) const
    {
        TlpMeta meta;
        meta.appClass = cls.appClass;
        meta.isHeader = isFirstLine;
        meta.isBurst = cls.burstActive;
        meta.destCore = cls.destCore;
        return meta;
    }

    /** Current burst-counter value for @p queue (bytes this interval). */
    std::uint32_t burstCounter(std::uint32_t queue) const
    {
        return counters[queue];
    }

    /** Threshold in bytes per interval. */
    std::uint32_t thresholdBytes() const { return thrBytes; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

    /** @{ Counters. */
    stats::Counter packetsClassified;
    stats::Counter burstsDetected; ///< threshold crossings
    stats::Counter class1Packets;
    /** @} */

  private:
    void resetCounters();

    ClassifierConfig cfg;
    std::uint32_t thrBytes;
    sim::CoreId firstCore;
    std::vector<std::uint32_t> counters; // one per queue
    std::vector<bool> crossedThis; // crossed threshold this interval
    std::vector<bool> crossedPrev; // crossed in the previous interval
    sim::PeriodicEvent resetEvent;
};

} // namespace nic

#endif // IDIO_NIC_CLASSIFIER_HH
