/**
 * @file
 * IdioClassifier implementation.
 */

#include "classifier.hh"

#include <algorithm>

#include "sim/simulation.hh"

namespace nic
{

namespace
{

std::uint32_t
bytesPerInterval(double gbps, sim::Tick interval)
{
    // gbps -> bytes per interval.
    const double bytesPerSec = gbps * 1e9 / 8.0;
    return static_cast<std::uint32_t>(bytesPerSec *
                                      sim::ticksToSeconds(interval));
}

} // anonymous namespace

IdioClassifier::IdioClassifier(sim::Simulation &simulation,
                               const std::string &name,
                               sim::CoreId firstCore,
                               std::uint32_t numQueues)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      packetsClassified(statGroup, "packetsClassified",
                        "packets run through the classifier"),
      burstsDetected(statGroup, "burstsDetected",
                     "burst-threshold crossings"),
      class1Packets(statGroup, "class1Packets",
                    "packets classified as application class 1"),
      thrBytes(bytesPerInterval(rxBurstThresholdGbps, counterInterval)),
      firstCore(firstCore), counters(numQueues, 0),
      crossedThis(numQueues, false), crossedPrev(numQueues, false),
      resetEvent(eventq(), counterInterval,
                 [this] { resetCounters(); }, name + ".counterReset")
{
}

void
IdioClassifier::start()
{
    resetEvent.start();
}

Classification
IdioClassifier::classify(const net::Packet &pkt, std::uint32_t queue)
{
    SIM_ASSERT(queue < counters.size(), "classifier queue out of range");
    ++packetsClassified;

    Classification cls;
    cls.appClass = pkt.dscp >= class1DscpMin ? 1 : 0;
    if (cls.appClass == 1)
        ++class1Packets;

    cls.destCore = firstCore + queue;

    auto &counter = counters[queue];
    counter += pkt.frameBytes;
    if (!crossedThis[queue] && counter > thrBytes) {
        crossedThis[queue] = true;
        if (!crossedPrev[queue]) {
            // A fresh burst: quiet interval followed by a crossing.
            ++burstsDetected;
            cls.burstActive = true;
        }
    }
    return cls;
}

void
IdioClassifier::resetCounters()
{
    std::fill(counters.begin(), counters.end(), 0);
    crossedPrev = crossedThis;
    std::fill(crossedThis.begin(), crossedThis.end(), false);
}

void
IdioClassifier::serialize(ckpt::Serializer &s) const
{
    s.writePodVec(counters);
    s.writeBoolVec(crossedThis);
    s.writeBoolVec(crossedPrev);
    ckpt::serializeEvent(s, resetEvent);
}

void
IdioClassifier::unserialize(ckpt::Deserializer &d)
{
    // Every vector holds one entry per queue of this port; a blob
    // sized otherwise was written for another port.
    const std::size_t queues = counters.size();
    counters = d.readPodVec<std::uint32_t>();
    crossedThis = d.readBoolVec();
    crossedPrev = d.readBoolVec();
    for (const std::size_t n :
         {counters.size(), crossedThis.size(), crossedPrev.size()}) {
        if (n != queues)
            sim::fatal("ckpt: '%s' holds burst state for %zu queues; "
                       "the port has %zu",
                       name().c_str(), n, queues);
    }
    ckpt::unserializeEvent(d, &resetEvent);
}

} // namespace nic
