/**
 * @file
 * Queued MLC prefetcher (paper Sec. V-C).
 *
 * Each MLC controller keeps a small FIFO (32 entries) of prefetch
 * hints received from the IDIO controller and issues prefetch requests
 * to the LLC at a fixed pace. Hints arriving at a full queue are
 * dropped.
 *
 * Besides the paper's simple queued prefetcher, a *CPU-paced* mode
 * implements the paper's suggested improvement ("a more sophisticated
 * prefetcher that follows the CPU pointer in the ring buffer to
 * regulate the MLC prefetching rate"): issuing stalls while more than
 * a window of prefetched lines sit unconsumed in the MLC, so the
 * prefetcher can never run far ahead of the consuming core and
 * thrash its own fills. The window is maintained from the
 * hierarchy's prefetch-retire feedback.
 */

#ifndef IDIO_IDIO_PREFETCHER_HH
#define IDIO_IDIO_PREFETCHER_HH

#include <deque>

#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "stats/registry.hh"

namespace idio
{

/** Prefetch queue entries per MLC (paper Sec. V-C and Table I: 32). */
constexpr std::uint32_t prefetchQueueDepth = 32;

/** Pacing between prefetch issues, ns (the only value any workload uses). */
constexpr double prefetchIssueNs = 5.0;

/**
 * Per-core queued prefetcher.
 */
class MlcPrefetcher : public sim::SimObject
{
    stats::StatGroup statGroup;

  public:
    /**
     * @param core The MLC this prefetcher fills.
     * @param pacingWindow Maximum prefetched-but-unconsumed lines
     *        allowed in the MLC before issuing stalls (0 disables
     *        pacing: the paper's simple queued prefetcher).
     */
    MlcPrefetcher(sim::Simulation &simulation, const std::string &name,
                  cache::MemoryHierarchy &hierarchy, sim::CoreId core,
                  std::uint32_t pacingWindow = 0);

    ~MlcPrefetcher() override;

    /** Enqueue a prefetch hint (dropped when the queue is full). */
    void hint(sim::Addr addr);

    /**
     * A prefetched line retired from the MLC (demand hit, eviction,
     * or invalidation); frees one pacing credit.
     */
    void onRetire();

    /** Pending hints. */
    std::size_t queueDepth() const { return queue.size(); }

    /** Prefetched lines currently unconsumed in the MLC. */
    std::uint32_t outstandingLines() const { return outstanding; }

    /** @{ Counters. */
    stats::Counter hintsReceived;
    stats::Counter hintsDropped;
    stats::Counter issued;
    stats::Counter fills;  ///< prefetches that actually moved a line
    stats::Counter stalls; ///< issue slots skipped (window full)
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    class IssueEvent : public sim::Event
    {
      public:
        explicit IssueEvent(MlcPrefetcher &owner) : owner(owner) {}
        void process() override { owner.issue(); }
        std::string name() const override
        {
            return owner.name() + ".issue";
        }

      private:
        MlcPrefetcher &owner;
    };

    void issue();

    /** True when pacing permits another issue. */
    bool
    canIssue() const
    {
        return window == 0 || outstanding < window;
    }

    cache::MemoryHierarchy &hier;
    sim::CoreId core;
    std::uint32_t window;
    std::uint32_t outstanding = 0;
    std::deque<sim::Addr> queue;
    IssueEvent issueEvent;
};

} // namespace idio

#endif // IDIO_IDIO_PREFETCHER_HH
