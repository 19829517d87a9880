/**
 * @file
 * Structured packet-lifecycle event tracing.
 *
 * The Tracer owns one fixed-capacity ring buffer per *source* (one per
 * instrumented component). The hot path is lock-free and branch-cheap:
 *
 *  - compile time: the IDIO_TRACE flag (CMake option, OFF in the
 *    release preset) turns every IDIO_TRACE_* macro into `(void)0`, so
 *    instrumented code carries zero cost when tracing is compiled out;
 *  - run time: when compiled in, each macro guards the record call
 *    with a single `enabled()` flag test, and a disabled tracer never
 *    allocates ring memory;
 *  - recording: an enabled record is one store into the source's own
 *    ring (power-of-two mask, overwrite-oldest), with no locks and no
 *    allocation. Sources are registered at construction time
 *    (cold path); each simulated system owns its own Tracer, so
 *    parallel sweeps (harness::SweepRunner) never share a buffer.
 *
 * Events follow the Chrome trace-event model (instant / complete /
 * counter, see events.hh) and are exported with writeChromeTrace()
 * for Perfetto / chrome://tracing. A monotonically increasing packet
 * id — assigned by the NIC at MAC arrival and threaded through
 * net::Packet and dpdk::Mbuf — correlates events across sources.
 */

#ifndef IDIO_TRACE_TRACER_HH
#define IDIO_TRACE_TRACER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "trace/events.hh"

// Compile-time gate. The build system defines IDIO_TRACE=0/1; default
// to "compiled in" for ad-hoc builds that bypass CMake.
#ifndef IDIO_TRACE
#define IDIO_TRACE 1
#endif

namespace trace
{

/** False when the build compiled the tracer out (IDIO_TRACE=OFF). */
constexpr bool compiledIn = IDIO_TRACE != 0;

/** One recorded event (fixed-size POD; 40 bytes). */
struct Event
{
    sim::Tick ts = 0;   ///< event (or span start) time, ticks
    sim::Tick dur = 0;  ///< span length (Complete) / value (Counter)
    std::uint64_t pktId = 0; ///< correlating packet id (0 = none)
    std::uint64_t argB = 0;  ///< kind-specific payload (addr, bytes..)
    std::uint32_t argA = 0;  ///< kind-specific payload (core, flag..)
    EventKind kind = EventKind::NicRx;
};

/**
 * Per-source ring of events. Overwrites the oldest record when full;
 * the drop count is reported so aggregations can detect truncation.
 */
class RingBuffer
{
  public:
    RingBuffer(std::uint32_t tid, std::string name)
        : srcName(std::move(name)), id(tid)
    {
    }

    /** Reserve the ring (called when tracing becomes enabled). */
    void
    allocate(std::size_t capacity)
    {
        if (!ring.empty())
            return;
        ring.resize(capacity);
        mask = capacity - 1;
    }

    bool allocated() const { return !ring.empty(); }

    /** Append one event (single store; caller checked enablement). */
    void
    record(const Event &ev)
    {
        if (ring.empty())
            return; // recorded while disabled: drop silently
        ring[head & mask] = ev;
        ++head;
    }

    /** Events ever appended. */
    std::uint64_t recorded() const { return head; }

    /** Events overwritten (lost to wraparound). */
    std::uint64_t
    dropped() const
    {
        return head > ring.size() ? head - ring.size() : 0;
    }

    /** Events still held in the ring. */
    std::size_t
    retained() const
    {
        return static_cast<std::size_t>(head - dropped());
    }

    /** Visit retained events, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::uint64_t first = dropped();
        for (std::uint64_t i = first; i < head; ++i)
            fn(ring[i & mask]);
    }

    std::uint32_t tid() const { return id; }
    const std::string &name() const { return srcName; }

    /**
     * Checkpoint restore: rewind the append counter to @p startHead
     * (the checkpointed drop count) so replaying the retained events
     * with record() reproduces the checkpointed ring bit for bit.
     */
    void resetForRestore(std::uint64_t startHead)
    {
        head = startHead;
    }

    /** Bytes of ring storage currently allocated. */
    std::size_t capacityBytes() const
    {
        return ring.size() * sizeof(Event);
    }

  private:
    std::string srcName;
    std::vector<Event> ring;
    std::uint64_t head = 0; ///< total appended
    std::uint64_t mask = 0;
    std::uint32_t id;
};

class Tracer;

/**
 * Cheap per-component handle; components keep one by value and feed
 * it through the IDIO_TRACE_* macros. A default-constructed Source is
 * inert.
 */
class Source
{
  public:
    Source() = default;

    /** True when the owning tracer is currently recording. */
    bool enabled() const;

    /** @{ Record one event (call only when enabled()). */
    void
    instant(EventKind kind, sim::Tick ts, std::uint64_t pktId,
            std::uint32_t argA, std::uint64_t argB)
    {
        Event ev;
        ev.ts = ts;
        ev.pktId = pktId;
        ev.argA = argA;
        ev.argB = argB;
        ev.kind = kind;
        buf->record(ev);
    }

    void
    complete(EventKind kind, sim::Tick start, sim::Tick dur,
             std::uint64_t pktId, std::uint32_t argA,
             std::uint64_t argB)
    {
        Event ev;
        ev.ts = start;
        ev.dur = dur;
        ev.pktId = pktId;
        ev.argA = argA;
        ev.argB = argB;
        ev.kind = kind;
        buf->record(ev);
    }

    void
    counter(EventKind kind, sim::Tick ts, std::uint64_t value,
            std::uint32_t argA = 0)
    {
        Event ev;
        ev.ts = ts;
        ev.dur = value;
        ev.argA = argA;
        ev.kind = kind;
        buf->record(ev);
    }
    /** @} */

  private:
    friend class Tracer;
    Source(Tracer *tracer, RingBuffer *buffer)
        : trc(tracer), buf(buffer)
    {
    }

    Tracer *trc = nullptr;
    RingBuffer *buf = nullptr;
};

/**
 * The per-simulation trace collector.
 */
class Tracer
{
  public:
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Register one event source (component constructor time). Ring
     * memory is only reserved once tracing is enabled.
     */
    Source registerSource(const std::string &name);

    /**
     * Set the per-source ring capacity (rounded up to a power of
     * two). Applies to rings not yet allocated; call before enable().
     */
    void setCapacity(std::size_t eventsPerSource);

    /** Start recording (allocates rings for registered sources). */
    void enable();

    /** Stop recording (retained events stay exportable). */
    void disable() { on = false; }

    bool enabled() const { return on; }

    /**
     * Hand out the next packet correlation id. Deterministic (one
     * counter per simulation) and valid even while tracing is
     * disabled, so packet ids are stable run properties.
     */
    std::uint64_t newPacketId() { return nextPktId++; }

    /** Registered sources, in registration (= tid) order. */
    const std::vector<std::unique_ptr<RingBuffer>> &
    sources() const
    {
        return bufs;
    }

    /** @{ Checkpoint save/restore access. */
    RingBuffer *findSource(const std::string &name);
    std::size_t capacity() const { return cap; }
    std::uint64_t peekNextPacketId() const { return nextPktId; }
    void setNextPacketId(std::uint64_t id) { nextPktId = id; }
    /** @} */

    /** Retained events of @p kind across all sources. */
    std::uint64_t count(EventKind kind) const;

    /** Events lost to ring wraparound across all sources. */
    std::uint64_t totalDropped() const;

    /** Ring bytes currently allocated (0 while never enabled). */
    std::size_t allocatedBytes() const;

  private:
    bool on = false;
    std::size_t cap = 1 << 16;
    std::uint64_t nextPktId = 1;
    std::vector<std::unique_ptr<RingBuffer>> bufs;
};

inline bool
Source::enabled() const
{
    return trc != nullptr && trc->enabled();
}

} // namespace trace

/**
 * @{ Instrumentation macros. With IDIO_TRACE=0 they expand to nothing
 * (arguments unevaluated); otherwise they cost one flag test when
 * tracing is off at run time.
 */
#if IDIO_TRACE
#define IDIO_TRACE_INSTANT(src, kind, ts, pktId, argA, argB)           \
    do {                                                               \
        if ((src).enabled())                                           \
            (src).instant((kind), (ts), (pktId), (argA), (argB));      \
    } while (0)
#define IDIO_TRACE_COMPLETE(src, kind, ts, dur, pktId, argA, argB)     \
    do {                                                               \
        if ((src).enabled())                                           \
            (src).complete((kind), (ts), (dur), (pktId), (argA),       \
                           (argB));                                    \
    } while (0)
#define IDIO_TRACE_COUNTER(src, kind, ts, value, argA)                 \
    do {                                                               \
        if ((src).enabled())                                           \
            (src).counter((kind), (ts), (value), (argA));              \
    } while (0)
#else
#define IDIO_TRACE_INSTANT(src, kind, ts, pktId, argA, argB) ((void)0)
#define IDIO_TRACE_COMPLETE(src, kind, ts, dur, pktId, argA, argB)     \
    ((void)0)
#define IDIO_TRACE_COUNTER(src, kind, ts, value, argA) ((void)0)
#endif
/** @} */

#endif // IDIO_TRACE_TRACER_HH
