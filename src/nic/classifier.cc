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
                               const ClassifierConfig &config,
                               std::uint32_t numCores)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      packetsClassified(statGroup, "packetsClassified",
                        "packets run through the classifier"),
      burstsDetected(statGroup, "burstsDetected",
                     "burst-threshold crossings"),
      class1Packets(statGroup, "class1Packets",
                    "packets classified as application class 1"),
      cfg(config),
      thrBytes(bytesPerInterval(config.rxBurstThresholdGbps,
                                config.counterInterval)),
      counters(numCores, 0), crossedThis(numCores, false),
      crossedPrev(numCores, false),
      // eventq(), not simulation.eventq(): under a split plan the
      // classifier lives on the NIC domain's queue and the counter
      // reset must fire there, not on the uncore queue.
      resetEvent(eventq(), config.counterInterval,
                 [this] { resetCounters(); }, name + ".counterReset")
{
}

void
IdioClassifier::start()
{
    resetEvent.start();
}

Classification
IdioClassifier::classify(const net::Packet &pkt, sim::CoreId destCore)
{
    SIM_ASSERT(destCore < counters.size(),
               "classifier destination core out of range");
    ++packetsClassified;

    Classification cls;
    cls.appClass = pkt.dscp >= cfg.class1DscpMin ? 1 : 0;
    if (cls.appClass == 1)
        ++class1Packets;

    cls.destCore = destCore;

    auto &counter = counters[cls.destCore];
    counter += pkt.frameBytes;
    if (!crossedThis[cls.destCore] && counter > thrBytes) {
        crossedThis[cls.destCore] = true;
        if (!crossedPrev[cls.destCore]) {
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
    counters = d.readPodVec<std::uint32_t>();
    crossedThis = d.readBoolVec();
    crossedPrev = d.readBoolVec();
    if (counters.size() != crossedThis.size() ||
        counters.size() != crossedPrev.size()) {
        sim::fatal("ckpt: '%s' per-core vector size mismatch",
                   name().c_str());
    }
    ckpt::unserializeEvent(d, &resetEvent, &eventq());
}

} // namespace nic
