/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: raw
 * hierarchy operation throughput, event-queue scheduling, Toeplitz
 * hashing, TLP encoding, classifier throughput and the DMA engine's
 * per-packet queueing. These quantify simulator performance
 * (host-side), not simulated metrics.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "net/flow.hh"
#include "nic/classifier.hh"
#include "nic/dma.hh"
#include "nic/tlp.hh"
#include "sim/delegate.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace
{

/** A member event, as the model's are, that counts its dispatches. */
class CountEvent : public sim::Event
{
  public:
    void process() override { ++fired; }
    std::uint64_t fired = 0;
};

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    sim::EventQueue q;
    CountEvent ev;
    for (auto _ : state) {
        q.schedule(&ev, q.now() + 10);
        q.runUntil(q.now() + 10);
    }
    benchmark::DoNotOptimize(ev.fired);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_EventQueueDescheduleChurn(benchmark::State &state)
{
    // Deschedule churn: every scheduled event is descheduled again,
    // each one erased exactly from its level-0 slot.
    constexpr int batch = 64;
    std::vector<CountEvent> evs(batch);
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
BENCHMARK(BM_EventQueueDescheduleChurn);

void
BM_EventQueueSameTickFanout(benchmark::State &state)
{
    // Fused same-tick dispatch: N events land on one tick and the
    // level-0 slot drains in a single batched pass.
    constexpr int fanout = 32;
    std::vector<CountEvent> evs(fanout);
    sim::EventQueue q;
    for (auto _ : state) {
        const sim::Tick at = q.now() + 8;
        for (CountEvent &ev : evs)
            q.schedule(&ev, at);
        q.runUntil(at);
    }
    benchmark::DoNotOptimize(evs.back().fired);
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
    CountEvent ev;
    for (auto _ : state) {
        q.schedule(&ev, q.now() + delta);
        q.runUntil(q.now() + delta);
    }
    benchmark::DoNotOptimize(ev.fired);
}
BENCHMARK(BM_EventQueueCascadeCrossing);

void
BM_EventQueueLevel3Cascade(benchmark::State &state)
{
    // Far-future traffic: a 2^26-tick delta places the event in level
    // 3, and the advance to its tick cascades that slot down to level
    // 0. Every event pays the upper-level placement and one cascade.
    constexpr sim::Tick delta = sim::Tick(1) << 26;
    sim::EventQueue q;
    CountEvent ev;
    for (auto _ : state) {
        q.schedule(&ev, q.now() + delta);
        q.runUntil(q.now() + delta);
    }
    benchmark::DoNotOptimize(ev.fired);
}
BENCHMARK(BM_EventQueueLevel3Cascade);

void
BM_TagSetIndexPow2(benchmark::State &state)
{
    // 1024 sets: the bitmask fast path (every Table I geometry).
    auto arr = cache::TagArray::withSets(
        1024, 8, cache::ReplKind::Lru);
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
        1000, 8, cache::ReplKind::Lru);
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
    // One port of eight queues (cores 0-7); the packet takes queue 5.
    nic::IdioClassifier cls(s, "cls", /*firstCore=*/0, /*numQueues=*/8);
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

void
BM_DmaPacketRun(benchmark::State &state)
{
    // One RX packet's DMA work as the NIC queues it: a header line and
    // a 24-line body (a 25-line payload), its completion callback, one
    // descriptor line and the descriptor's callback, pumped a line per
    // 2 ns through a target that does nothing. Host time per iteration
    // is the DMA layer's cost per packet.
    class NullTarget : public nic::DmaTarget
    {
      public:
        void dmaWrite(sim::Addr, const nic::TlpMeta &) override {}
        sim::Tick dmaRead(sim::Addr) override { return 0; }
    };

    sim::Simulation s;
    NullTarget target;
    nic::DmaEngine dma(s, "dma", target, 32.0);
    std::uint64_t sink = 0;
    const std::uint32_t done = dma.registerHandler(
        "done", [&sink](const nic::DmaArgs &args) { sink += args[0]; });
    nic::TlpMeta head;
    head.isHeader = true;
    const nic::TlpMeta body;
    constexpr sim::Addr buf = 0x10000;
    for (auto _ : state) {
        dma.enqueueWrite(buf, head);
        dma.enqueueWrite(buf + 64, body, 24);
        dma.enqueueCallback(done, {1});
        dma.enqueueWrite(0x2000, body);
        dma.enqueueCallback(done, {1});
        s.runFor(sim::oneUs);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DmaPacketRun);

} // anonymous namespace

BENCHMARK_MAIN();
