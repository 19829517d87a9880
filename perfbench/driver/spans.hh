/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Every call the benchmark makes into a simulator layer (system
 * construction, start, runFor, totals, checkpoint, restore, the clone
 * probes) can be wrapped in a span: a name, a start and end on the
 * host's steady clock, and the span that was open when it began (its
 * parent). Spans may carry counter deltas read at the same boundaries.
 * Nothing is written while the benchmark runs; the whole record is
 * dumped as JSON at exit.
 *
 * A span's self time is its duration minus its children's durations.
 */

#ifndef IDIO_PERFBENCH_DRIVER_SPANS_HH
#define IDIO_PERFBENCH_DRIVER_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since an arbitrary fixed epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One recorded interval. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root

    /** Counter deltas over the span (empty when none were attached). */
    std::vector<double> counters;

    std::int64_t duration() const { return endNs - startNs; }
};

/**
 * Self time of every span in @p spans: its duration minus the sum of
 * its children's durations. Children are found by their parent index;
 * spans nest strictly (SpanRecorder guarantees it), so children never
 * overlap each other or stick out of their parent.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Records properly nested spans. A disabled recorder records nothing
 * and its open/close calls cost one branch.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span under the innermost open one; returns its index. */
    int
    open(std::string name)
    {
        if (!on)
            return -1;
        Span s;
        s.name = std::move(name);
        s.parent = stack.empty() ? -1 : stack.back();
        s.startNs = nowNs();
        all.push_back(std::move(s));
        stack.push_back(static_cast<int>(all.size()) - 1);
        return stack.back();
    }

    /** Close span @p id, which must be the innermost open one. */
    void close(int id);

    /** Attach counter deltas to a recorded span. */
    void
    attach(int id, std::vector<double> deltas)
    {
        if (id >= 0)
            all[static_cast<std::size_t>(id)].counters = std::move(deltas);
    }

    const std::vector<Span> &spans() const { return all; }
    std::size_t size() const { return all.size(); }

    /** Write every span, with its self time, as one JSON document. */
    void writeJson(std::ostream &os,
                   const std::vector<std::string> &counterNames) const;

  private:
    bool on;
    std::vector<Span> all;
    std::vector<int> stack;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : recorder(rec), spanId(rec.open(std::move(name)))
    {
    }

    ~ScopedSpan() { recorder.close(spanId); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder;
    int spanId;
};

} // namespace perfbench

#endif // IDIO_PERFBENCH_DRIVER_SPANS_HH
