/**
 * @file
 * DmaEngine implementation.
 */

#include "dma.hh"

#include <algorithm>

#include "sim/simulation.hh"

namespace nic
{

DmaEngine::DmaEngine(sim::Simulation &simulation, const std::string &name,
                     DmaTarget &target, double pcieGBps)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      linesWritten(statGroup, "linesWritten",
                   "inbound DMA cachelines written"),
      linesRead(statGroup, "linesRead", "outbound DMA cachelines read"),
      callbacks(statGroup, "callbacks", "completion callbacks fired"),
      target(target), pumpEvent(*this)
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
        push(Transfer{mem::lineAlign(addr), meta, lines,
                      Transfer::Kind::WriteLine});
}

void
DmaEngine::enqueueRead(sim::Addr addr, std::uint32_t lines)
{
    if (lines != 0)
        push(Transfer{mem::lineAlign(addr), {}, lines,
                      Transfer::Kind::ReadLine});
}

std::uint32_t
DmaEngine::registerHandler(const std::string &handlerName,
                           DmaHandler fn)
{
    for (const Handler &h : handlers) {
        if (h.hname == handlerName)
            sim::panic("DMA handler '%s' registered twice on '%s'",
                       handlerName.c_str(), name().c_str());
    }
    handlers.push_back(Handler{handlerName, std::move(fn)});
    return static_cast<std::uint32_t>(handlers.size() - 1);
}

void
DmaEngine::enqueueCallback(std::uint32_t handlerId,
                           const DmaArgs &args)
{
    SIM_ASSERT(handlerId < handlers.size(),
               "enqueueCallback with an unregistered handler id");
    pendingCbs.push_back(PendingCallback{handlerId, args});
    push(Transfer{0, {}, 1, Transfer::Kind::Callback});
}

void
DmaEngine::pump()
{
    // Run consecutive callbacks for free; transfers occupy the link
    // for lineTime per line.
    while (!xfers.empty() &&
           xfers.front().kind == Transfer::Kind::Callback) {
        xfers.pop_front();
        const PendingCallback cb = pendingCbs.front();
        pendingCbs.pop_front();
        ++callbacks;
        handlers[cb.handlerId].fn(cb.args);
    }

    if (xfers.empty())
        return;

    // Take the front run's next line before calling out, as if that
    // line had been its own queue entry.
    Transfer &run = xfers.front();
    const Transfer::Kind kind = run.kind;
    const sim::Addr addr = run.addr;
    const TlpMeta meta = run.meta;
    if (--run.lines == 0)
        xfers.pop_front();
    else
        run.addr += mem::lineSize;

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
    auto cb = pendingCbs.begin();
    for (const Transfer &t : xfers) {
        for (std::uint32_t i = 0; i < t.lines; ++i) {
            s.writeU8(static_cast<std::uint8_t>(t.kind));
            switch (t.kind) {
              case Transfer::Kind::WriteLine:
                s.writeU64(t.addr + std::uint64_t(i) * mem::lineSize);
                serializeTlpMeta(s, t.meta);
                break;
              case Transfer::Kind::ReadLine:
                s.writeU64(t.addr + std::uint64_t(i) * mem::lineSize);
                break;
              case Transfer::Kind::Callback:
                s.writeString(handlers[cb->handlerId].hname);
                for (const std::uint64_t a : cb->args)
                    s.writeU64(a);
                ++cb;
                break;
            }
        }
    }
}

void
DmaEngine::unserialize(ckpt::Deserializer &d)
{
    ckpt::unserializeEvent(d, &pumpEvent);
    xfers.clear();
    pendingCbs.clear();
    const std::uint64_t count = d.readU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Transfer t{0, {}, 1, static_cast<Transfer::Kind>(d.readU8())};
        switch (t.kind) {
          case Transfer::Kind::WriteLine:
            t.addr = d.readU64();
            t.meta = unserializeTlpMeta(d);
            break;
          case Transfer::Kind::ReadLine:
            t.addr = d.readU64();
            break;
          case Transfer::Kind::Callback: {
            const std::string hname = d.readString();
            PendingCallback cb{};
            const auto h = std::find_if(
                handlers.begin(), handlers.end(),
                [&](const Handler &x) { return x.hname == hname; });
            if (h == handlers.end())
                sim::fatal("ckpt: checkpointed DMA handler '%s' is "
                           "not registered on '%s'",
                           hname.c_str(), name().c_str());
            cb.handlerId =
                static_cast<std::uint32_t>(h - handlers.begin());
            for (std::uint64_t &a : cb.args)
                a = d.readU64();
            pendingCbs.push_back(cb);
            break;
          }
          default:
            sim::fatal("ckpt: bad DMA op kind in section '%s'",
                       name().c_str());
        }
        // One line per entry, uncoalesced. Push directly: restore must
        // not re-arm the pump here, the checkpointed pumpEvent
        // schedule is replayed instead.
        xfers.push_back(t);
    }
}

} // namespace nic
