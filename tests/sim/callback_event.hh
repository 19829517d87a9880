/**
 * @file
 * Test-only events that run a callable.
 *
 * Model code schedules only Events its owner holds; tests often just
 * want "run this at tick T". Callbacks owns one CallbackEvent per
 * such schedule (fired ones included, until it dies) and deschedules
 * the pending ones on destruction, so declare it after the queue or
 * Simulation it schedules on.
 */

#ifndef IDIO_TESTS_SIM_CALLBACK_EVENT_HH
#define IDIO_TESTS_SIM_CALLBACK_EVENT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/event_queue.hh"

namespace simtest
{

/** An Event that runs a callable each time it fires. */
class CallbackEvent final : public sim::Event
{
  public:
    explicit CallbackEvent(std::function<void()> fn) : fn(std::move(fn)) {}
    void process() override { fn(); }

  private:
    std::function<void()> fn;
};

/** Owner of the callback events a test schedules on one queue. */
class Callbacks
{
  public:
    explicit Callbacks(sim::EventQueue &q) : q(q) {}
    Callbacks(const Callbacks &) = delete;
    Callbacks &operator=(const Callbacks &) = delete;

    ~Callbacks()
    {
        for (CallbackEvent &ev : events)
            if (ev.scheduled())
                q.deschedule(&ev);
    }

    /** Run @p fn at tick @p when. @return the schedule's seq. */
    std::uint64_t
    at(sim::Tick when, std::function<void()> fn)
    {
        CallbackEvent &ev = events.emplace_back(std::move(fn));
        q.schedule(&ev, when);
        return ev.seq();
    }

    /** Run @p fn @p delta ticks from now. */
    std::uint64_t
    in(sim::Tick delta, std::function<void()> fn)
    {
        return at(q.now() + delta, std::move(fn));
    }

  private:
    sim::EventQueue &q;
    std::deque<CallbackEvent> events; // stable addresses
};

} // namespace simtest

#endif // IDIO_TESTS_SIM_CALLBACK_EVENT_HH
