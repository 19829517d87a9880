/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: raw
 * hierarchy operation throughput, event-queue scheduling, Toeplitz
 * hashing, TLP encoding, and classifier throughput. These quantify
 * simulator performance (host-side), not simulated metrics.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "net/flow.hh"
#include "nic/classifier.hh"
#include "nic/tlp.hh"
#include "sim/delegate.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace
{

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        q.schedule(q.now() + 10, [&sink] { ++sink; });
        q.runUntil(q.now() + 10);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_EventQueueSquashCompact(benchmark::State &state)
{
    // Deschedule churn: every scheduled event is squashed again,
    // exercising the lazy heap compaction path end to end.
    class NopEvent : public sim::Event
    {
      public:
        void process() override {}
    };

    constexpr int batch = 64;
    std::vector<NopEvent> evs(batch);
    sim::EventQueue q;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            q.schedule(&evs[i], q.now() + 10 + i);
        for (int i = 0; i < batch; ++i)
            q.deschedule(&evs[i]);
    }
    benchmark::DoNotOptimize(q.pending());
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueSquashCompact);

void
BM_EventQueueSameTickFanout(benchmark::State &state)
{
    // Fused same-tick dispatch: N one-shots land on one tick and the
    // level-0 slot drains in a single batched pass.
    constexpr int fanout = 32;
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const sim::Tick at = q.now() + 8;
        for (int i = 0; i < fanout; ++i)
            q.schedule(at, [&sink] { ++sink; });
        q.runUntil(at);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * fanout);
}
BENCHMARK(BM_EventQueueSameTickFanout);

void
BM_EventQueueCascadeCrossing(benchmark::State &state)
{
    // Level-1/2 traffic: deltas past the 256-tick level-0 span force
    // slot placement in the upper levels and a cascade back down on
    // every advance. Measures the placement + cascade round trip that
    // long-period timers (retransmit, sweep barriers) pay.
    constexpr sim::Tick delta = 1 << 12; // level-1 span
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        q.schedule(q.now() + delta, [&sink] { ++sink; });
        q.runUntil(q.now() + delta);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueCascadeCrossing);

void
BM_EventQueueOverflowSpill(benchmark::State &state)
{
    // Beyond-horizon traffic: deltas past the 2^24-tick wheel span
    // spill to the overflow heap and are refilled into the wheel when
    // the base crosses into their block. Worst case for the wheel —
    // every event pays heap push + refill placement + cascade.
    constexpr sim::Tick delta = sim::Tick(1) << 26;
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        q.schedule(q.now() + delta, [&sink] { ++sink; });
        q.runUntil(q.now() + delta);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueOverflowSpill);

void
BM_TagSetIndexPow2(benchmark::State &state)
{
    // 1024 sets: the bitmask fast path (every Table I geometry).
    auto arr = cache::TagArray::withSets(
        1024, 8, cache::makeReplacementPolicy("lru"));
    sim::Addr a = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += arr.setIndex(a);
        a += 64;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_TagSetIndexPow2);

void
BM_TagSetIndexGeneric(benchmark::State &state)
{
    // 1000 sets: the generic modulo path (coverage-scaled directory).
    auto arr = cache::TagArray::withSets(
        1000, 8, cache::makeReplacementPolicy("lru"));
    sim::Addr a = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += arr.setIndex(a);
        a += 64;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_TagSetIndexGeneric);

void
BM_ObserverDelegate(benchmark::State &state)
{
    std::uint64_t count = 0;
    auto fn = [&count](sim::CoreId) { ++count; };
    auto obs = sim::Delegate<void(sim::CoreId)>::fromCallable(&fn);
    for (auto _ : state)
        obs(0);
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_ObserverDelegate);

void
BM_ObserverStdFunction(benchmark::State &state)
{
    std::uint64_t count = 0;
    std::function<void(sim::CoreId)> obs =
        [&count](sim::CoreId) { ++count; };
    for (auto _ : state)
        obs(0);
    benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_ObserverStdFunction);

void
BM_HierarchyCoreReadHit(benchmark::State &state)
{
    sim::Simulation s;
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", cfg);
    hier.coreRead(0, 0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(hier.coreRead(0, 0x1000));
}
BENCHMARK(BM_HierarchyCoreReadHit);

void
BM_HierarchyStreamingMiss(benchmark::State &state)
{
    sim::Simulation s;
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", cfg);
    sim::Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.coreRead(0, a));
        a += 64;
    }
}
BENCHMARK(BM_HierarchyStreamingMiss);

void
BM_HierarchyPcieWrite(benchmark::State &state)
{
    sim::Simulation s;
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cache::MemoryHierarchy hier(s, "sys", cfg);
    sim::Addr a = 0;
    for (auto _ : state) {
        hier.pcieWrite(a);
        a = (a + 64) & 0xFFFFF;
    }
}
BENCHMARK(BM_HierarchyPcieWrite);

void
BM_ToeplitzHash(benchmark::State &state)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = 40000;
    t.dstPort = 5000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net::toeplitzHash(t));
        ++t.srcPort;
    }
}
BENCHMARK(BM_ToeplitzHash);

void
BM_TlpEncodeDecode(benchmark::State &state)
{
    nic::TlpMeta m;
    m.destCore = 17;
    m.isHeader = true;
    for (auto _ : state) {
        const auto dw0 = nic::encodeTlp(m);
        benchmark::DoNotOptimize(nic::decodeTlp(dw0));
    }
}
BENCHMARK(BM_TlpEncodeDecode);

void
BM_ClassifierPacket(benchmark::State &state)
{
    sim::Simulation s;
    nic::IdioClassifier cls(s, "cls", {}, 8);
    net::Packet p;
    p.flow.srcIp = 1;
    p.flow.dstIp = 2;
    p.flow.srcPort = 3;
    p.flow.dstPort = 4;
    p.frameBytes = 1514;
    for (auto _ : state)
        benchmark::DoNotOptimize(cls.classify(p, 5));
}
BENCHMARK(BM_ClassifierPacket);

} // anonymous namespace

BENCHMARK_MAIN();
