/**
 * @file
 * Traffic generator implementations.
 */

#include "traffic.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace gen
{

namespace
{

sim::Tick
interPacketGap(const std::string &name, std::uint32_t frameBytes,
               double rateGbps)
{
    if (!(rateGbps > 0.0))
        sim::fatal("traffic source '%s' needs a positive rate, got %g "
                   "Gbps",
                   name.c_str(), rateGbps);
    // Time to serialise one frame at the given line rate.
    const double ns =
        static_cast<double>(frameBytes) * 8.0 / rateGbps;
    return std::max<sim::Tick>(1, sim::nsToTicks(ns));
}

} // anonymous namespace

TrafficSource::TrafficSource(sim::Simulation &simulation,
                             const std::string &name, nic::Nic &nicPort,
                             const TrafficConfig &config,
                             bool needsFlows)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      packetsSent(statGroup, "packetsSent", "packets generated"),
      bytesSent(statGroup, "bytesSent", "bytes generated"),
      port(nicPort), cfg(config)
{
    if (needsFlows && cfg.flows.empty() && cfg.synthFlows == 0)
        sim::fatal("traffic source '%s' has no flows", name.c_str());
    if (!cfg.flows.empty() && cfg.synthFlows != 0)
        sim::fatal("traffic source '%s' mixes explicit and synthetic "
                   "flows",
                   name.c_str());
}

TrafficSource::~TrafficSource()
{
    if (fireEvent.scheduled())
        eventq().deschedule(&fireEvent);
}

void
TrafficSource::scheduleFireAt(sim::Tick when)
{
    eventq().schedule(&fireEvent, when);
}

void
TrafficSource::serialize(ckpt::Serializer &s) const
{
    s.writeU64(nextFlow);
    s.writeU64(seq);
    ckpt::serializeEvent(s, fireEvent);
}

void
TrafficSource::unserialize(ckpt::Deserializer &d)
{
    nextFlow = static_cast<std::size_t>(d.readU64());
    seq = d.readU64();
    ckpt::unserializeEvent(d, &fireEvent);
}

void
TrafficSource::emitPacket()
{
    net::Packet pkt;
    if (cfg.synthFlows != 0) {
        pkt.flow = synthFlowTuple(nextFlow, cfg.synthBasePort);
        pkt.dscp = cfg.synthDscp;
        nextFlow = (nextFlow + 1) % cfg.synthFlows;
    } else {
        const FlowSpec &spec = cfg.flows[nextFlow];
        nextFlow = (nextFlow + 1) % cfg.flows.size();
        pkt.flow = spec.tuple;
        pkt.dscp = spec.dscp;
    }
    pkt.frameBytes = cfg.frameBytes;
    pkt.seq = seq++;
    pkt.genTime = now();
    ++packetsSent;
    bytesSent += pkt.frameBytes;
    port.deliver(pkt);
}

SteadyTrafficGen::SteadyTrafficGen(sim::Simulation &simulation,
                                   const std::string &name,
                                   nic::Nic &nicPort,
                                   const TrafficConfig &config,
                                   double rateGbps)
    : TrafficSource(simulation, name, nicPort, config),
      interPacket(interPacketGap(name, config.frameBytes, rateGbps))
{
}

void
SteadyTrafficGen::start()
{
    scheduleFireIn(interPacket);
}

void
SteadyTrafficGen::tick()
{
    if (stopped())
        return;
    emitPacket();
    scheduleFireIn(interPacket);
}

BurstyTrafficGen::BurstyTrafficGen(sim::Simulation &simulation,
                                   const std::string &name,
                                   nic::Nic &nicPort,
                                   const TrafficConfig &config,
                                   const BurstParams &params)
    : TrafficSource(simulation, name, nicPort, config), burst(params),
      interPacket(
          interPacketGap(name, config.frameBytes, params.burstRateGbps))
{
}

sim::Tick
BurstyTrafficGen::burstLength() const
{
    return interPacket * burst.burstPackets;
}

void
BurstyTrafficGen::start()
{
    inBurstRemaining = burst.burstPackets;
    nextBurstStart = now() + burst.burstPeriod;
    scheduleFireIn(interPacket);
}

void
BurstyTrafficGen::tick()
{
    if (stopped())
        return;

    emitPacket();
    if (--inBurstRemaining > 0) {
        scheduleFireIn(interPacket);
        return;
    }

    // Burst over: sleep until the next period.
    inBurstRemaining = burst.burstPackets;
    const sim::Tick startAt = std::max(nextBurstStart, now());
    nextBurstStart = startAt + burst.burstPeriod;
    scheduleFireAt(startAt);
}

void
BurstyTrafficGen::serialize(ckpt::Serializer &s) const
{
    TrafficSource::serialize(s);
    s.writeU32(inBurstRemaining);
    s.writeTick(nextBurstStart);
}

void
BurstyTrafficGen::unserialize(ckpt::Deserializer &d)
{
    TrafficSource::unserialize(d);
    inBurstRemaining = d.readU32();
    nextBurstStart = d.readTick();
}

PoissonTrafficGen::PoissonTrafficGen(sim::Simulation &simulation,
                                     const std::string &name,
                                     nic::Nic &nicPort,
                                     const TrafficConfig &config,
                                     double rateGbps)
    : TrafficSource(simulation, name, nicPort, config),
      meanGapTicks(static_cast<double>(
          interPacketGap(name, config.frameBytes, rateGbps))),
      rng(simulation.deriveRng(name).next())
{
}

void
PoissonTrafficGen::start()
{
    scheduleFireIn(std::max<sim::Tick>(
        1, static_cast<sim::Tick>(rng.exponential(meanGapTicks))));
}

void
PoissonTrafficGen::tick()
{
    if (stopped())
        return;
    emitPacket();
    start();
}

void
PoissonTrafficGen::serialize(ckpt::Serializer &s) const
{
    TrafficSource::serialize(s);
    for (const std::uint64_t w : rng.state())
        s.writeU64(w);
}

void
PoissonTrafficGen::unserialize(ckpt::Deserializer &d)
{
    TrafficSource::unserialize(d);
    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &w : st)
        w = d.readU64();
    rng.setState(st);
}

TraceTrafficGen::TraceTrafficGen(sim::Simulation &simulation,
                                 const std::string &name,
                                 nic::Nic &nicPort,
                                 std::vector<net::TraceRecord> traceIn,
                                 bool loop, sim::Tick loopGap)
    : TrafficSource(simulation, name, nicPort, TrafficConfig{},
                    /*needsFlows=*/false),
      trace(std::move(traceIn)), loop(loop), loopGap(loopGap)
{
    if (trace.empty())
        sim::fatal("trace source '%s' has an empty trace",
                   name.c_str());
    // Normalise to offsets from the first record.
    const sim::Tick t0 = trace.front().when;
    for (auto &r : trace)
        r.when -= t0;
}

void
TraceTrafficGen::start()
{
    epoch = now();
    next = 0;
    scheduleFireAt(epoch + trace.front().when);
}

void
TraceTrafficGen::deliverNext()
{
    if (stopped())
        return;

    net::Packet pkt = trace[next].pkt;
    pkt.genTime = now();
    ++packetsSent;
    bytesSent += pkt.frameBytes;
    port.deliver(pkt);

    if (++next >= trace.size()) {
        if (!loop)
            return;
        next = 0;
        epoch = now() + loopGap;
    }
    scheduleFireAt(epoch + trace[next].when);
}

void
TraceTrafficGen::serialize(ckpt::Serializer &s) const
{
    TrafficSource::serialize(s);
    s.writeU64(next);
    s.writeTick(epoch);
}

void
TraceTrafficGen::unserialize(ckpt::Deserializer &d)
{
    TrafficSource::unserialize(d);
    next = static_cast<std::size_t>(d.readU64());
    epoch = d.readTick();
}

net::FiveTuple
synthFlowTuple(std::uint64_t idx, std::uint16_t basePort)
{
    // splitmix64 finaliser: a cheap, well-distributed pure function of
    // the flow index.
    std::uint64_t z = idx + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;

    net::FiveTuple t;
    t.srcIp = 0x0a000000u |
              static_cast<std::uint32_t>(z & 0xffffffu); // 10.x.x.x
    t.dstIp = 0xc0a80000u |
              static_cast<std::uint32_t>((z >> 24) & 0xffffu); // 192.168
    t.srcPort =
        static_cast<std::uint16_t>(1024 + ((z >> 40) & 0x7fff));
    t.dstPort = basePort;
    t.proto = net::IpProto::Udp;
    return t;
}

std::vector<FlowSpec>
makeFlows(std::uint32_t n, std::uint32_t baseDstPort, std::uint8_t dscp)
{
    std::vector<FlowSpec> flows;
    flows.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        FlowSpec f;
        f.tuple.srcIp = 0x0a000001;        // 10.0.0.1
        f.tuple.dstIp = 0x0a000002;        // 10.0.0.2
        f.tuple.srcPort =
            static_cast<std::uint16_t>(40000 + i);
        f.tuple.dstPort =
            static_cast<std::uint16_t>(baseDstPort + i);
        f.tuple.proto = net::IpProto::Udp;
        f.dscp = dscp;
        flows.push_back(f);
    }
    return flows;
}

} // namespace gen
