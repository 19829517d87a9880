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
DmaEngine::enqueueWrite(sim::Addr addr, const TlpMeta &meta)
{
    ops.push_back(DmaOp{DmaOp::Kind::WriteLine, mem::lineAlign(addr),
                        meta, {}});
    schedulePump();
}

void
DmaEngine::enqueueRead(sim::Addr addr)
{
    ops.push_back(
        DmaOp{DmaOp::Kind::ReadLine, mem::lineAlign(addr), {}, {}});
    schedulePump();
}

void
DmaEngine::enqueueCallback(std::function<void()> cb)
{
    DmaOp op;
    op.kind = DmaOp::Kind::Callback;
    op.cb = std::move(cb);
    ops.push_back(std::move(op));
    schedulePump();
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
    DmaOp op;
    op.kind = DmaOp::Kind::Callback;
    op.handlerId = handlerId;
    op.args = args;
    ops.push_back(std::move(op));
    schedulePump();
}

void
DmaEngine::schedulePump()
{
    if (!pumpEvent.scheduled() && !ops.empty())
        eventq().scheduleIn(&pumpEvent, 0);
}

void
DmaEngine::fireCallback(DmaOp &op)
{
    if (op.handlerId != DmaOp::noHandler)
        handlers[op.handlerId].fn(op.args);
    else
        op.cb();
}

void
DmaEngine::pump()
{
    // Run consecutive callbacks for free; transfers occupy the link
    // for lineTime each.
    while (!ops.empty() &&
           ops.front().kind == DmaOp::Kind::Callback) {
        DmaOp op = std::move(ops.front());
        ops.pop_front();
        ++callbacks;
        fireCallback(op);
    }

    if (ops.empty())
        return;

    DmaOp op = std::move(ops.front());
    ops.pop_front();
    switch (op.kind) {
      case DmaOp::Kind::WriteLine:
        target.dmaWrite(op.addr, op.meta);
        ++linesWritten;
        break;
      case DmaOp::Kind::ReadLine:
        target.dmaRead(op.addr);
        ++linesRead;
        break;
      case DmaOp::Kind::Callback:
        break; // unreachable
    }

    // Re-arm after the link occupancy interval; the pending event also
    // represents "link busy until then" for later enqueues.
    eventq().scheduleIn(&pumpEvent, lineTime);
}

void
DmaEngine::serialize(ckpt::Serializer &s) const
{
    ckpt::serializeEvent(s, pumpEvent);
    s.writeU64(ops.size());
    for (const DmaOp &op : ops) {
        s.writeU8(static_cast<std::uint8_t>(op.kind));
        switch (op.kind) {
          case DmaOp::Kind::WriteLine:
            s.writeU64(op.addr);
            serializeTlpMeta(s, op.meta);
            break;
          case DmaOp::Kind::ReadLine:
            s.writeU64(op.addr);
            break;
          case DmaOp::Kind::Callback:
            if (op.handlerId == DmaOp::noHandler) {
                sim::fatal("ckpt: DMA engine '%s' has an anonymous "
                           "callback pending; only named handlers "
                           "(registerHandler) are checkpointable",
                           name().c_str());
            }
            s.writeString(handlers[op.handlerId].hname);
            for (const std::uint64_t a : op.args)
                s.writeU64(a);
            break;
        }
    }
}

void
DmaEngine::unserialize(ckpt::Deserializer &d)
{
    ckpt::unserializeEvent(d, &pumpEvent);
    ops.clear();
    const std::uint64_t count = d.readU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        DmaOp op;
        op.kind = static_cast<DmaOp::Kind>(d.readU8());
        switch (op.kind) {
          case DmaOp::Kind::WriteLine:
            op.addr = d.readU64();
            op.meta = unserializeTlpMeta(d);
            break;
          case DmaOp::Kind::ReadLine:
            op.addr = d.readU64();
            break;
          case DmaOp::Kind::Callback: {
            const std::string hname = d.readString();
            op.handlerId = DmaOp::noHandler;
            for (std::uint32_t h = 0; h < handlers.size(); ++h) {
                if (handlers[h].hname == hname) {
                    op.handlerId = h;
                    break;
                }
            }
            if (op.handlerId == DmaOp::noHandler)
                sim::fatal("ckpt: checkpointed DMA handler '%s' is "
                           "not registered on '%s'",
                           hname.c_str(), name().c_str());
            for (std::uint64_t &a : op.args)
                a = d.readU64();
            break;
          }
          default:
            sim::fatal("ckpt: bad DMA op kind in section '%s'",
                       name().c_str());
        }
        // Push directly: restore must not re-arm the pump here, the
        // checkpointed pumpEvent schedule is replayed instead.
        ops.push_back(std::move(op));
    }
}

} // namespace nic
