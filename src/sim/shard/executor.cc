/**
 * @file
 * ShardedExecutor implementation.
 */

#include "executor.hh"

#include <algorithm>

#include "sim/shard/link.hh"

namespace sim
{
namespace shard
{

ShardedExecutor::ShardedExecutor(unsigned jobs)
    : nJobs(jobs == 0 ? 1 : jobs)
{
}

ShardedExecutor::~ShardedExecutor()
{
    stopWorkers();
}

DomainId
ShardedExecutor::addRecord(const std::string &name,
                           std::unique_ptr<EventQueue> ownedQueue,
                           EventQueue *external)
{
    DomainRec rec;
    rec.name = name;
    rec.owned = std::move(ownedQueue);
    rec.queue = rec.owned ? rec.owned.get() : external;
    doms.push_back(std::move(rec));
    return static_cast<DomainId>(doms.size() - 1);
}

DomainId
ShardedExecutor::addDomain(const std::string &name)
{
    return addRecord(name, std::make_unique<EventQueue>(), nullptr);
}

DomainId
ShardedExecutor::addExternalDomain(const std::string &name,
                                   EventQueue &queue)
{
    return addRecord(name, nullptr, &queue);
}

void
ShardedExecutor::setWindow(Tick w)
{
    if (w == 0)
        fatal("shard window must be at least one tick");
    windowTicks = w;
}

void
ShardedExecutor::registerChannel(LinkChannelBase *ch)
{
    channels.push_back(ch);
}

void
ShardedExecutor::flushChannels()
{
    for (LinkChannelBase *ch : channels)
        ch->flush();
}

void
ShardedExecutor::startWorkers(unsigned count)
{
    workers.reserve(count);
    for (unsigned w = 0; w < count; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
ShardedExecutor::stopWorkers()
{
    if (workers.empty())
        return;
    poolStop.store(true, std::memory_order_release);
    for (std::thread &t : workers)
        t.join();
    workers.clear();
}

void
ShardedExecutor::claimDomains()
{
    for (;;) {
        const std::size_t d =
            poolNext.fetch_add(1, std::memory_order_relaxed);
        if (d >= doms.size())
            return;
        poolCounts[d] = doms[d].queue->runUntil(poolWindowEnd);
    }
}

void
ShardedExecutor::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        unsigned spins = 0;
        while (poolGen.load(std::memory_order_acquire) == seen) {
            if (poolStop.load(std::memory_order_acquire))
                return;
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        seen = poolGen.load(std::memory_order_acquire);
        claimDomains();
        poolDone.fetch_add(1, std::memory_order_release);
    }
}

void
ShardedExecutor::mergeStagedPosts()
{
    struct Item
    {
        Tick when;
        DomainId src;
        std::uint64_t seq;
        StagedPost *post;
    };
    std::vector<Item> items;
    for (DomainId d = 0; d < doms.size(); ++d) {
        for (StagedPost &p : doms[d].outbox)
            items.push_back(Item{p.when, d, p.seq, &p});
    }
    if (items.empty())
        return;

    // (tick, source domain, per-source staging order): a total order
    // that does not depend on which thread ran which domain.
    std::sort(items.begin(), items.end(),
              [](const Item &a, const Item &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    // Whole-window batching: a run of consecutive posts with the same
    // (tick, destination) becomes ONE scheduled event that replays the
    // callbacks in order, so a burst of cross-domain deliveries pays a
    // single scheduler insertion. Relative delivery order on the
    // destination queue is unchanged — the batch occupies the position
    // the first post of the run would have had, and the run was
    // already consecutive in the merged order.
    std::size_t i = 0;
    while (i < items.size()) {
        const Tick when = items[i].when;
        const DomainId dst = items[i].post->dst;
        std::size_t j = i + 1;
        while (j < items.size() && items[j].when == when &&
               items[j].post->dst == dst)
            ++j;
        if (j - i == 1) {
            doms[dst].queue->schedule(when, std::move(items[i].post->fn));
        } else {
            std::vector<std::function<void()>> batch;
            batch.reserve(j - i);
            for (std::size_t k = i; k < j; ++k)
                batch.push_back(std::move(items[k].post->fn));
            doms[dst].queue->schedule(
                when, [batch = std::move(batch)] {
                    for (const std::function<void()> &fn : batch)
                        fn();
                });
        }
        nCrossPosts += j - i;
        i = j;
    }
    for (DomainRec &d : doms)
        d.outbox.clear();
}

std::uint64_t
ShardedExecutor::runUntil(Tick limit)
{
    if (doms.empty())
        fatal("ShardedExecutor::runUntil with no domains");

    // Deliver posts/messages staged by setup code before the first
    // window.
    flushChannels();
    mergeStagedPosts();

    std::uint64_t processed = 0;
    // Start from the furthest-advanced member; after a restore the
    // queues carry the checkpointed time base and we must not step
    // backwards.
    Tick base = 0;
    for (const DomainRec &d : doms)
        base = std::max(base, d.queue->now());

    while (base <= limit) {
        // Idle skip: nothing can fire before the earliest pending
        // event anywhere, so jump straight to it.
        Tick minNext = maxTick;
        for (const DomainRec &d : doms)
            minNext = std::min(minNext, d.queue->peekNextTick());
        if (minNext > limit)
            break;
        base = std::max(base, minNext);

        const Tick windowEnd =
            (windowTicks >= maxTick - base)
                ? limit
                : std::min(base + windowTicks - 1, limit);
        curWindowEnd = windowEnd;
        inWindow = true;

        if (doms.size() > 1 && nJobs > 1) {
            // Hand the window to the persistent pool: each domain is
            // claimed off a shared index, and results land in
            // per-domain slots so the sum (and everything else) is
            // independent of thread scheduling. The main thread
            // claims domains alongside the workers.
            if (workers.empty()) {
                startWorkers(static_cast<unsigned>(std::min<std::size_t>(
                    nJobs - 1, doms.size() - 1)));
            }
            poolWindowEnd = windowEnd;
            poolCounts.assign(doms.size(), 0);
            poolNext.store(0, std::memory_order_relaxed);
            poolDone.store(0, std::memory_order_relaxed);
            poolGen.fetch_add(1, std::memory_order_release);
            claimDomains();
            unsigned spins = 0;
            while (poolDone.load(std::memory_order_acquire) !=
                   workers.size()) {
                if (++spins > 256) {
                    std::this_thread::yield();
                    spins = 0;
                }
            }
            for (std::uint64_t c : poolCounts)
                processed += c;
        } else {
            for (DomainRec &d : doms)
                processed += d.queue->runUntil(windowEnd);
        }

        inWindow = false;
        flushChannels();
        mergeStagedPosts();
        ++nWindows;

        if (windowEnd >= limit)
            break;
        base = windowEnd + 1;
    }

    // Mirror runUntil(limit) semantics on every domain: time base ends
    // at the limit even if a domain went idle early. Posts merged at
    // the last barrier sit past the window, so nothing fires here.
    if (limit != maxTick) {
        for (DomainRec &d : doms)
            d.queue->runUntil(limit);
    }
    return processed;
}

} // namespace shard
} // namespace sim
