/**
 * @file
 * DmaEngine implementation.
 */

#include "dma.hh"

#include <algorithm>
#include <limits>

#include "sim/simulation.hh"

namespace nic
{

DmaEngine::DmaEngine(sim::Simulation &simulation, const std::string &name,
                     DmaTarget &target, double pcieGBps, Sink sink,
                     std::uint32_t queues, std::uint32_t ringSize)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      linesWritten(statGroup, "linesWritten",
                   "inbound DMA cachelines written"),
      linesRead(statGroup, "linesRead", "outbound DMA cachelines read"),
      callbacks(statGroup, "callbacks", "completion callbacks fired"),
      target(target), sink(sink), queues(queues), ringSize(ringSize),
      poolSizes(queues, std::numeric_limits<std::uint32_t>::max()),
      pumpEvent(*this)
{
    const double ns = static_cast<double>(mem::lineSize) / pcieGBps;
    lineTime = std::max<sim::Tick>(1, sim::nsToTicks(ns));
}

DmaEngine::~DmaEngine()
{
    if (pumpEvent.scheduled())
        eventq().deschedule(&pumpEvent);
}

void
DmaEngine::push(const Transfer &t)
{
    xfers.push_back(t);
    if (!pumpEvent.scheduled())
        eventq().scheduleIn(&pumpEvent, 0);
}

void
DmaEngine::enqueueWrite(sim::Addr addr, const TlpMeta &meta,
                        std::uint32_t lines)
{
    if (lines != 0)
        push(Transfer(Transfer::Kind::WriteLine, mem::lineAlign(addr),
                      meta, lines));
}

void
DmaEngine::enqueueRead(sim::Addr addr, std::uint32_t lines)
{
    if (lines != 0)
        push(Transfer(Transfer::Kind::ReadLine, mem::lineAlign(addr),
                      {}, lines));
}

void
DmaEngine::enqueueCompletion(const DmaCompletion &done)
{
    push(Transfer(done));
}

void
DmaEngine::bindMempool(std::uint32_t queue, std::uint32_t mbufs)
{
    SIM_ASSERT(queue < queues, "bindMempool: queue out of range");
    poolSizes[queue] = mbufs;
}

void
DmaEngine::pump()
{
    // Hand consecutive completions over for free; transfers occupy
    // the link for lineTime per line.
    while (!xfers.empty() &&
           xfers.front().kind == Transfer::Kind::Completion) {
        const DmaCompletion done = xfers.front().done;
        xfers.pop_front();
        ++callbacks;
        sink(done);
    }

    if (xfers.empty())
        return;

    // Take the front run's next line before calling out, as if that
    // line had been its own queue entry.
    Transfer &front = xfers.front();
    const Transfer::Kind kind = front.kind;
    const sim::Addr addr = front.run.addr;
    const TlpMeta meta = front.run.meta;
    if (--front.lines == 0)
        xfers.pop_front();
    else
        front.run.addr += mem::lineSize;

    if (kind == Transfer::Kind::WriteLine) {
        target.dmaWrite(addr, meta);
        ++linesWritten;
    } else {
        target.dmaRead(addr);
        ++linesRead;
    }

    // Re-arm after the link occupancy interval; the pending event also
    // represents "link busy until then" for later enqueues.
    eventq().scheduleIn(&pumpEvent, lineTime);
}

namespace
{

/**
 * Checkpoint record tags: a line record's tag is its transfer kind, a
 * completion's is completionTag plus its DmaCompletion::Kind.
 */
constexpr std::uint8_t completionTag = 2;
constexpr std::uint8_t lastTag =
    completionTag +
    static_cast<std::uint8_t>(DmaCompletion::Kind::TxDone);

} // anonymous namespace

void
DmaEngine::serialize(ckpt::Serializer &s) const
{
    // One record per line, as if every line were its own entry, so
    // the layout does not depend on how transfers were queued.
    ckpt::serializeEvent(s, pumpEvent);
    std::uint64_t records = 0;
    for (const Transfer &t : xfers)
        records += t.lines;
    s.writeU64(records);
    for (const Transfer &t : xfers) {
        if (t.kind == Transfer::Kind::Completion) {
            s.writeU8(completionTag +
                      static_cast<std::uint8_t>(t.done.kind));
            s.writeU32(t.done.queue);
            s.writeU32(t.done.index);
            s.writeBool(t.done.burst);
            continue;
        }
        for (std::uint32_t i = 0; i < t.lines; ++i) {
            s.writeU8(static_cast<std::uint8_t>(t.kind));
            s.writeU64(t.run.addr + std::uint64_t(i) * mem::lineSize);
            if (t.kind == Transfer::Kind::WriteLine)
                serializeTlpMeta(s, t.run.meta);
        }
    }
}

void
DmaEngine::unserialize(ckpt::Deserializer &d)
{
    ckpt::unserializeEvent(d, &pumpEvent);
    xfers.clear();
    const std::uint64_t count = d.readU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t tag = d.readU8();
        if (tag > lastTag)
            sim::fatal("ckpt: bad DMA record kind %u in section '%s'",
                       tag, name().c_str());
        // One line per entry, uncoalesced. Push directly: restore must
        // not re-arm the pump here, the checkpointed pumpEvent
        // schedule is replayed instead.
        if (tag < completionTag) {
            const auto kind = static_cast<Transfer::Kind>(tag);
            const sim::Addr addr = d.readU64();
            const TlpMeta meta = kind == Transfer::Kind::WriteLine
                                     ? unserializeTlpMeta(d)
                                     : TlpMeta{};
            xfers.push_back(Transfer(kind, addr, meta, 1));
            continue;
        }
        DmaCompletion done{};
        done.kind = static_cast<DmaCompletion::Kind>(tag - completionTag);
        done.queue = d.readU32();
        done.index = d.readU32();
        done.burst = d.readBool();
        if (done.queue >= queues ||
            (done.kind != DmaCompletion::Kind::TxDone &&
             done.index >= ringSize))
            sim::fatal("ckpt: DMA completion (queue %u, index %u) is "
                       "out of range for %u queues of %u descriptors "
                       "in section '%s'",
                       done.queue, done.index, queues, ringSize,
                       name().c_str());
        if (done.kind == DmaCompletion::Kind::TxDone &&
            done.index >= poolSizes[done.queue])
            sim::fatal("ckpt: TX completion of mbuf %u is out of range "
                       "for queue %u's pool of %u in section '%s'",
                       done.index, done.queue, poolSizes[done.queue],
                       name().c_str());
        xfers.push_back(Transfer(done));
    }
}

} // namespace nic
