/**
 * @file
 * Network load generators (paper Sec. VI).
 *
 * The paper drives its simulated server with a hardware load-generator
 * model producing either steady traffic at a fixed rate or parameterised
 * bursts (burst period / burst length / burst rate, with the burst
 * length chosen so each burst carries exactly ring-size packets). These
 * classes reproduce that methodology; a Poisson generator is included
 * for property tests and examples.
 */

#ifndef IDIO_GEN_TRAFFIC_HH
#define IDIO_GEN_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "net/pcap.hh"
#include "nic/nic.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace gen
{

/** One flow emitted by a generator. */
struct FlowSpec
{
    net::FiveTuple tuple;
    std::uint8_t dscp = 0;
};

/** Settings shared by all generators. */
struct TrafficConfig
{
    /** Ethernet frame size (paper default: MTU frames, 1514 B). */
    std::uint32_t frameBytes = net::maxFrameBytes;

    /** Flows cycled round-robin; must not be empty. */
    std::vector<FlowSpec> flows;

    /**
     * Synthetic flow population: when non-zero, the generator cycles
     * @c synthFlows procedurally generated flows (see synthFlowTuple)
     * instead of the explicit @c flows list. This is how million-flow
     * RSS experiments stay affordable — no per-flow FlowSpec storage.
     */
    std::uint64_t synthFlows = 0;

    /** DSCP marking of every synthetic flow. */
    std::uint8_t synthDscp = 0;

    /** Stop generating at this tick (maxTick = never). */
    sim::Tick stopAt = sim::maxTick;
};

/**
 * Destination port of every synthetic flow (the only value any
 * workload uses).
 */
constexpr std::uint16_t synthDstPort = 5000;

/**
 * The i-th synthetic flow: a UDP 5-tuple to synthDstPort whose
 * addresses and source port are a splitmix64 mix of @p idx, so
 * consecutive indices spread uniformly over the Toeplitz hash space
 * (as a real many-client load does) while remaining a pure
 * deterministic function of the index.
 */
net::FiveTuple synthFlowTuple(std::uint64_t idx);

/**
 * Base class: owns the target NIC, flow rotation, and counters.
 */
class TrafficSource : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param needsFlows Subclasses that carry their own per-packet
     *        flow identity (e.g.\ trace replay) pass false.
     */
    TrafficSource(sim::Simulation &simulation, const std::string &name,
                  nic::Nic &nicPort, const TrafficConfig &config,
                  bool needsFlows = true);

    ~TrafficSource() override;

    /** Begin generating at the current tick. */
    virtual void start() = 0;

    /** @{ Counters. */
    stats::Counter packetsSent;
    stats::Counter bytesSent;
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  protected:
    /** Emit the next packet (round-robin flow selection). */
    void emitPacket();

    /** True when generation should cease. */
    bool stopped() const { return now() >= cfg.stopAt; }

    /**
     * @{ Generator pacing. All of it goes through one member event,
     * so a checkpoint records its {when, seq} and restore can
     * re-register it; fire() dispatches to the subclass's emission
     * routine.
     */
    void scheduleFireAt(sim::Tick when);
    void scheduleFireIn(sim::Tick delay) { scheduleFireAt(now() + delay); }
    virtual void fire() = 0;
    /** @} */

    nic::Nic &port;
    TrafficConfig cfg;

  private:
    class FireEvent : public sim::Event
    {
      public:
        explicit FireEvent(TrafficSource &owner) : owner(owner) {}
        void process() override { owner.fire(); }
        std::string name() const override
        {
            return owner.name() + ".fire";
        }

      private:
        TrafficSource &owner;
    };

    std::size_t nextFlow = 0;
    std::uint64_t seq = 0;
    FireEvent fireEvent{*this};
};

/**
 * Constant-rate generator: one packet every frameBits/rate seconds.
 */
class SteadyTrafficGen : public TrafficSource
{
  public:
    SteadyTrafficGen(sim::Simulation &simulation, const std::string &name,
                     nic::Nic &nicPort, const TrafficConfig &config,
                     double rateGbps);

    void start() override;

    /** Inter-packet gap in ticks. */
    sim::Tick gap() const { return interPacket; }

  private:
    void tick();
    void fire() override { tick(); }

    sim::Tick interPacket;
};

/**
 * Bursty generator: every burstPeriod, emit burstPackets packets at
 * burstRate line rate, then stay silent until the next period. With
 * burstPackets equal to the RX ring size, this reproduces the paper's
 * burst-length rule exactly.
 */
class BurstyTrafficGen : public TrafficSource
{
  public:
    struct BurstParams
    {
        sim::Tick burstPeriod = 10 * sim::oneMs;
        std::uint32_t burstPackets = 1024;
        double burstRateGbps = 100.0;
    };

    BurstyTrafficGen(sim::Simulation &simulation, const std::string &name,
                     nic::Nic &nicPort, const TrafficConfig &config,
                     const BurstParams &params);

    void start() override;

    /** Duration of one burst (the paper's "burst length"). */
    sim::Tick burstLength() const;

    const BurstParams &params() const { return burst; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    void tick();
    void fire() override { tick(); }

    BurstParams burst;
    sim::Tick interPacket;
    std::uint32_t inBurstRemaining = 0;
    sim::Tick nextBurstStart = 0;
};

/**
 * Poisson-arrival generator at a mean rate.
 */
class PoissonTrafficGen : public TrafficSource
{
  public:
    PoissonTrafficGen(sim::Simulation &simulation,
                      const std::string &name, nic::Nic &nicPort,
                      const TrafficConfig &config, double rateGbps);

    void start() override;

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    void tick();
    void fire() override { tick(); }

    double meanGapTicks;
    sim::Rng rng;
};

/**
 * Replays a recorded trace (e.g.\ loaded with net::PcapReader):
 * every record is delivered at its recorded offset from start(),
 * with its recorded flow identity, DSCP and frame size. Optionally
 * loops the trace with a fixed gap between iterations.
 */
class TraceTrafficGen : public TrafficSource
{
  public:
    TraceTrafficGen(sim::Simulation &simulation,
                    const std::string &name, nic::Nic &nicPort,
                    std::vector<net::TraceRecord> trace,
                    bool loop = false,
                    sim::Tick loopGap = sim::oneMs);

    void start() override;

    std::size_t traceLength() const { return trace.size(); }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    void deliverNext();
    void fire() override { deliverNext(); }

    std::vector<net::TraceRecord> trace;
    bool loop;
    sim::Tick loopGap;
    std::size_t next = 0;
    sim::Tick epoch = 0; ///< simulated time of trace position 0
};

/** Convenience: build @p n UDP flows targeting distinct ports. */
std::vector<FlowSpec> makeFlows(std::uint32_t n,
                                std::uint32_t baseDstPort = 5000,
                                std::uint8_t dscp = 0);

} // namespace gen

#endif // IDIO_GEN_TRAFFIC_HH
