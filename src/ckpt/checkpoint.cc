/**
 * @file
 * Checkpoint orchestration implementation.
 */

#include "checkpoint.hh"

#include <fstream>
#include <iterator>

#include "serializer.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "stats/latency_recorder.hh"
#include "stats/registry.hh"
#include "stats/stat.hh"
#include "trace/tracer.hh"

namespace ckpt
{

namespace
{

// Stat type tags in the _stats section.
constexpr std::uint8_t tagCounter = 0;
constexpr std::uint8_t tagGauge = 1;
constexpr std::uint8_t tagLatencyRecorder = 2;

constexpr const char *eventqSection = "_eventq";

// _eventq holds only what the replay cannot rebuild: the time base
// and the counters. Firing order is the (tick, seq) order whatever the
// wheel geometry, so the geometry is not recorded. The processed
// field is the logical-step count, which does not depend on how many
// steps the queue's agent ran inside one dispatch.
void
saveEventq(Serializer &s, sim::EventQueue &eq)
{
    s.beginSection(eventqSection, /*version=*/5);
    s.writeTick(eq.now());
    s.writeU64(sim::EventQueueRestoreAccess::nextSeq(eq));
    s.writeU64(eq.logicalSteps());
    s.writeU64(eq.pending());
    s.endSection();
}

/** The _eventq counters, applied once the pending set is replayed. */
struct EventqCounters
{
    std::uint64_t nextSeq;
    std::uint64_t steps;
    std::uint64_t pending;
};

/**
 * Read _eventq and set the emptied queue's time base, so the replay
 * places the pending set against it.
 */
EventqCounters
restoreEventqTick(Deserializer &d, sim::EventQueue &eq)
{
    const std::uint32_t version = d.beginSection(eventqSection);
    if (version != 5)
        sim::fatal("ckpt: '%s' section version %u; this build reads "
                   "version 5",
                   eventqSection, version);
    const sim::Tick tick = d.readTick();
    EventqCounters c;
    c.nextSeq = d.readU64();
    c.steps = d.readU64();
    c.pending = d.readU64();
    d.endSection();
    sim::EventQueueRestoreAccess::setCurTick(eq, tick);
    return c;
}

void
restoreEventqCounters(sim::EventQueue &eq, const EventqCounters &c)
{
    if (eq.pending() != c.pending)
        sim::fatal("ckpt: restored %zu pending events in '%s' but the "
                   "checkpoint recorded %llu — some owner failed to "
                   "re-register its callbacks",
                   eq.pending(), eventqSection,
                   (unsigned long long)c.pending);
    sim::EventQueueRestoreAccess::setNextSeq(eq, c.nextSeq);
    sim::EventQueueRestoreAccess::setLogicalSteps(eq, c.steps);
}

void
saveRootRng(Serializer &s, sim::Simulation &simulation)
{
    s.beginSection("_rootRng");
    for (const std::uint64_t w : simulation.rng().state())
        s.writeU64(w);
    s.endSection();
}

void
saveStats(Serializer &s, const stats::Registry &reg)
{
    s.beginSection("_stats");
    const auto &groups = reg.groups();
    s.writeU32(static_cast<std::uint32_t>(groups.size()));
    for (const stats::StatGroup *g : groups) {
        s.writeString(g->name());
        s.writeU32(static_cast<std::uint32_t>(g->statList().size()));
        for (const stats::Stat *st : g->statList()) {
            s.writeString(st->name());
            if (const auto *c =
                    dynamic_cast<const stats::Counter *>(st)) {
                s.writeU8(tagCounter);
                s.writeU64(c->get());
            } else if (const auto *gg =
                           dynamic_cast<const stats::Gauge *>(st)) {
                s.writeU8(tagGauge);
                s.writeDouble(gg->value());
            } else if (const auto *lr = dynamic_cast<
                           const stats::LatencyRecorder *>(st)) {
                s.writeU8(tagLatencyRecorder);
                s.writePodVec(lr->rawSamples());
            } else {
                sim::fatal("ckpt: stat '%s.%s' has an unsupported "
                           "type; teach saveStats() about it",
                           g->name().c_str(), st->name().c_str());
            }
        }
    }
    s.endSection();
}

void
restoreStats(Deserializer &d, stats::Registry &reg)
{
    d.beginSection("_stats");
    const std::uint32_t nGroups = d.readU32();
    if (nGroups != reg.groups().size())
        sim::fatal("ckpt: stat group count mismatch (checkpoint %u, "
                   "simulation %zu)",
                   nGroups, reg.groups().size());
    for (std::uint32_t gi = 0; gi < nGroups; ++gi) {
        const std::string gname = d.readString();
        stats::StatGroup *g = reg.findGroup(gname);
        if (!g)
            sim::fatal("ckpt: checkpointed stat group '%s' not "
                       "present in this simulation",
                       gname.c_str());
        const std::uint32_t nStats = d.readU32();
        if (nStats != g->statList().size())
            sim::fatal("ckpt: stat count mismatch in group '%s' "
                       "(checkpoint %u, simulation %zu)",
                       gname.c_str(), nStats, g->statList().size());
        for (std::uint32_t si = 0; si < nStats; ++si) {
            const std::string sname = d.readString();
            stats::Stat *st = g->find(sname);
            if (!st)
                sim::fatal("ckpt: checkpointed stat '%s.%s' not "
                           "present in this simulation",
                           gname.c_str(), sname.c_str());
            const std::uint8_t tag = d.readU8();
            if (tag == tagCounter) {
                auto *c = dynamic_cast<stats::Counter *>(st);
                if (!c)
                    sim::fatal("ckpt: stat '%s.%s' is not a Counter",
                               gname.c_str(), sname.c_str());
                c->restore(d.readU64());
            } else if (tag == tagGauge) {
                auto *gg = dynamic_cast<stats::Gauge *>(st);
                if (!gg)
                    sim::fatal("ckpt: stat '%s.%s' is not a Gauge",
                               gname.c_str(), sname.c_str());
                gg->set(d.readDouble());
            } else if (tag == tagLatencyRecorder) {
                auto *lr = dynamic_cast<stats::LatencyRecorder *>(st);
                if (!lr)
                    sim::fatal(
                        "ckpt: stat '%s.%s' is not a LatencyRecorder",
                        gname.c_str(), sname.c_str());
                lr->restore(d.readPodVec<std::uint64_t>());
            } else {
                sim::fatal("ckpt: unknown stat tag %u for '%s.%s'",
                           tag, gname.c_str(), sname.c_str());
            }
        }
    }
    d.endSection();
}

void
saveTracer(Serializer &s, trace::Tracer &tracer)
{
    s.beginSection("_tracer");
    s.writeBool(tracer.enabled());
    s.writeU64(tracer.capacity());
    s.writeU64(tracer.peekNextPacketId());
    const auto &srcs = tracer.sources();
    s.writeU32(static_cast<std::uint32_t>(srcs.size()));
    for (const auto &buf : srcs) {
        s.writeString(buf->name());
        s.writeU64(buf->recorded());
        std::vector<trace::Event> events;
        events.reserve(buf->retained());
        buf->forEach(
            [&](const trace::Event &ev) { events.push_back(ev); });
        s.writePodVec(events);
    }
    s.endSection();
}

void
restoreTracer(Deserializer &d, trace::Tracer &tracer)
{
    d.beginSection("_tracer");
    const bool on = d.readBool();
    const std::uint64_t cap = d.readU64();
    const std::uint64_t nextPktId = d.readU64();
    const std::uint32_t nSources = d.readU32();
    if (nSources != tracer.sources().size())
        sim::fatal("ckpt: trace source count mismatch (checkpoint "
                   "%u, simulation %zu)",
                   nSources, tracer.sources().size());

    // Match the checkpointed enablement. setCapacity() only applies
    // to rings not yet allocated, so a harness that already enabled
    // tracing with a different capacity keeps its own rings (the
    // retained events replay identically either way).
    tracer.setCapacity(static_cast<std::size_t>(cap));
    if (on)
        tracer.enable();

    for (std::uint32_t i = 0; i < nSources; ++i) {
        const std::string name = d.readString();
        const std::uint64_t recorded = d.readU64();
        const auto events = d.readPodVec<trace::Event>();
        trace::RingBuffer *buf = tracer.findSource(name);
        if (!buf)
            sim::fatal("ckpt: checkpointed trace source '%s' not "
                       "present in this simulation",
                       name.c_str());
        if (recorded && !buf->allocated()) {
            // Tracing was disabled after recording: the ring still
            // holds exportable events, so it must exist here too.
            buf->allocate(tracer.capacity());
        }
        // Replay retained events through record() so the ring layout
        // (head counter and slot placement) matches the checkpointed
        // tracer exactly.
        buf->resetForRestore(recorded - events.size());
        for (const trace::Event &ev : events)
            buf->record(ev);
    }
    tracer.setNextPacketId(nextPktId);
    d.endSection();
}

} // anonymous namespace

std::vector<std::uint8_t>
save(sim::Simulation &simulation)
{
    sim::EventQueue &eq = simulation.eventq();
    // Sleeping cores' skipped steps become counters and their next
    // step a pending event: the state an uncut run would hold.
    eq.wakeSleepers();
    Serializer s;
    saveEventq(s, eq);
    saveRootRng(s, simulation);
    saveStats(s, simulation.statsRegistry());
    saveTracer(s, simulation.tracer());
    for (const sim::SimObject *obj : simulation.objects()) {
        s.beginSection(obj->name());
        obj->serialize(s);
        s.endSection();
    }
    return s.finish(simulation.seed(), eq.now());
}

void
saveToFile(const std::string &path, sim::Simulation &simulation)
{
    const std::vector<std::uint8_t> blob = save(simulation);
    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        sim::fatal("ckpt: cannot open '%s' for writing",
                   path.c_str());
    ofs.write(reinterpret_cast<const char *>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!ofs)
        sim::fatal("ckpt: short write to '%s'", path.c_str());
}

void
restore(sim::Simulation &simulation,
        const std::vector<std::uint8_t> &blob)
{
    Deserializer d(blob);
    if (d.seed() != simulation.seed())
        sim::fatal("ckpt: seed mismatch (checkpoint %llu, simulation "
                   "%llu); pass the matching --seed",
                   (unsigned long long)d.seed(),
                   (unsigned long long)simulation.seed());

    sim::EventQueue &eq = simulation.eventq();

    // Drop everything construction/start() scheduled; the checkpointed
    // pending set replaces it wholesale, replayed against the
    // checkpointed time base.
    sim::EventQueueRestoreAccess::clearPending(eq);
    const EventqCounters counters = restoreEventqTick(d, eq);

    // _rootRng
    d.beginSection("_rootRng");
    std::array<std::uint64_t, 4> st;
    for (auto &w : st)
        w = d.readU64();
    simulation.rng().setState(st);
    d.endSection();

    restoreStats(d, simulation.statsRegistry());
    restoreTracer(d, simulation.tracer());

    for (sim::SimObject *obj : simulation.objects()) {
        d.beginSection(obj->name());
        obj->unserialize(d);
        d.endSection();
    }

    // Replay pending events in original order, then force the counters
    // (the replay took fresh sequence numbers from zero).
    d.applyDeferred(eq);
    restoreEventqCounters(eq, counters);
}

void
restoreFromFile(const std::string &path, sim::Simulation &simulation)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        sim::fatal("ckpt: cannot open '%s'", path.c_str());
    std::vector<std::uint8_t> blob(
        (std::istreambuf_iterator<char>(ifs)),
        std::istreambuf_iterator<char>());
    restore(simulation, blob);
}

} // namespace ckpt
