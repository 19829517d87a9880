/**
 * @file
 * Conservative-window sharded event-queue executor.
 *
 * The ShardedExecutor advances a set of timing domains — each one an
 * EventQueue — in lockstep windows. Within one window every domain
 * runs independently: domains never share model state inside a window,
 * so they may execute on separate host threads. Cross-domain
 * interactions go through post() or a registered LinkChannel, which
 * stage the message on the *source* side; at the window barrier the
 * staged work is delivered into its target queues in a deterministic
 * order, on one thread.
 *
 * Determinism argument, in three pieces:
 *
 *  1. A domain's window is a plain runUntil(windowEnd) over its own
 *     queue — a pure function of that queue's contents.
 *  2. Across domains, no shared state is touched inside a window
 *     (posts only append to the source's own outbox), so domain
 *     execution order is immaterial; the conservative window
 *     guarantees a post can only target ticks after the barrier,
 *     which post() enforces with a hard panic.
 *  3. The barrier merge sorts staged posts by a key that is itself
 *     deterministic, and assigns target-queue sequence numbers in that
 *     sorted order on a single thread.
 *
 * Hence the result is bit-identical for any worker count.
 */

#ifndef IDIO_SIM_SHARD_EXECUTOR_HH
#define IDIO_SIM_SHARD_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sim
{
namespace shard
{

class LinkChannelBase;

/** Identifier of one timing domain (dense, in addDomain order). */
using DomainId = std::uint32_t;

/**
 * Runs per-domain EventQueues under a conservative-window
 * synchronizer; see the file comment.
 */
class ShardedExecutor
{
  public:
    /**
     * @param jobs Host threads available for domain execution.
     *             Domains only run concurrently when both jobs > 1 and
     *             more than one domain exists.
     */
    explicit ShardedExecutor(unsigned jobs = 1);
    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;
    ~ShardedExecutor();

    /** Add a domain backed by a queue the executor owns. */
    DomainId addDomain(const std::string &name);

    /**
     * Add a domain backed by an externally owned queue (e.g.\ the
     * Simulation's queue, so existing SimObjects keep their time
     * base). The queue must outlive the executor.
     */
    DomainId addExternalDomain(const std::string &name,
                               EventQueue &queue);

    /** Set the conservative window width in ticks (>= 1). */
    void setWindow(Tick w);
    Tick window() const { return windowTicks; }

    unsigned jobs() const { return nJobs; }
    std::size_t domains() const { return doms.size(); }
    EventQueue &queue(DomainId d) { return *doms.at(d).queue; }
    const std::string &domainName(DomainId d) const
    {
        return doms.at(d).name;
    }

    /**
     * Stage a cross-domain event: @p fn runs in @p dst's queue at
     * @p when. Must not target a tick inside the current window — the
     * conservative contract — and panics if it does. Legal both from
     * inside a window (the usual case: an event in src posts to dst)
     * and outside (setup code priming domains before the first run).
     */
    template <typename F>
    void
    post(DomainId src, DomainId dst, Tick when, F &&fn)
    {
        if (src >= doms.size() || dst >= doms.size())
            fatal("shard post with unknown domain (src %u, dst %u)",
                  src, dst);
        if (inWindow && when <= curWindowEnd)
            panic("conservative window violated: domain '%s' posted "
                  "to '%s' at tick %llu inside window ending %llu",
                  doms[src].name.c_str(), doms[dst].name.c_str(),
                  (unsigned long long)when,
                  (unsigned long long)curWindowEnd);
        DomainRec &s = doms[src];
        s.outbox.push_back(StagedPost{when, s.postSeq++, dst,
                                      std::function<void()>(
                                          std::forward<F>(fn))});
    }

    /**
     * Register a link channel to be flushed at every window barrier
     * (and before the first window of each run). Registration order is
     * part of the deterministic barrier order; register channels in
     * model-construction order. The channel must outlive the executor.
     */
    void registerChannel(LinkChannelBase *ch);

    /**
     * Advance all domains to @p limit (inclusive, mirroring
     * EventQueue::runUntil). Every member queue's now() equals
     * @p limit on return unless limit == maxTick.
     *
     * @return total events processed across all domains.
     */
    std::uint64_t runUntil(Tick limit);

    /** @{ Execution statistics. */
    std::uint64_t windowsRun() const { return nWindows; }
    std::uint64_t crossPostsDelivered() const { return nCrossPosts; }
    /** @} */

  private:
    struct StagedPost
    {
        Tick when;
        std::uint64_t seq; // per-source staging order
        DomainId dst;
        std::function<void()> fn;
    };

    struct DomainRec
    {
        std::string name;
        EventQueue *queue = nullptr; // owned.get() or external
        std::unique_ptr<EventQueue> owned;
        std::vector<StagedPost> outbox;
        std::uint64_t postSeq = 0;
    };

    DomainId addRecord(const std::string &name,
                       std::unique_ptr<EventQueue> ownedQueue,
                       EventQueue *external);

    /** Barrier step: deliver staged posts in deterministic order. */
    void mergeStagedPosts();

    /** Barrier step: flush registered channels in registration order. */
    void flushChannels();

    /**
     * @{ Persistent worker pool. Workers park on a generation counter
     * (spin briefly, then yield) between windows; per-window thread
     * spawn would dominate at sub-microsecond windows. The main thread
     * participates as one worker, so the pool holds nJobs - 1 threads,
     * started lazily at the first parallel window.
     */
    void startWorkers(unsigned count);
    void stopWorkers();
    void workerLoop();
    void claimDomains();

    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> poolGen{0};
    std::atomic<bool> poolStop{false};
    Tick poolWindowEnd = 0;
    std::atomic<std::size_t> poolNext{0};
    std::atomic<std::size_t> poolDone{0};
    std::vector<std::uint64_t> poolCounts;
    /** @} */

    unsigned nJobs;
    Tick windowTicks = oneUs;
    bool inWindow = false;
    Tick curWindowEnd = 0;
    std::vector<DomainRec> doms;
    std::vector<LinkChannelBase *> channels;
    std::uint64_t nWindows = 0;
    std::uint64_t nCrossPosts = 0;
};

} // namespace shard
} // namespace sim

#endif // IDIO_SIM_SHARD_EXECUTOR_HH
