/**
 * @file
 * Periodic callback event.
 *
 * Used for fixed-cadence activities: the IDIO control plane (1 us), the
 * classifier burst-counter reset (1 us), timeline samplers (10 us).
 *
 * These short fixed periods are the timing wheel's ideal case: each
 * reschedule lands within the wheel horizon (usually level 0 or 1), so
 * the per-firing scheduler cost is O(1) slot placement rather than a
 * heap reheapify (see event_queue.hh).
 */

#ifndef IDIO_SIM_PERIODIC_HH
#define IDIO_SIM_PERIODIC_HH

#include <functional>
#include <string>
#include <utility>

#include "event_queue.hh"
#include "types.hh"

namespace sim
{

/**
 * Fires a callback every @p period ticks until stopped.
 */
class PeriodicEvent : public Event
{
  public:
    /**
     * @param queue Event queue to run on.
     * @param period Interval between firings.
     * @param fn Callback invoked each period.
     * @param label Name for tracing.
     */
    PeriodicEvent(EventQueue &queue, Tick period,
                  std::function<void()> fn,
                  std::string label = "periodic")
        : queue(queue), period(period), fn(std::move(fn)),
          label(std::move(label))
    {
    }

    ~PeriodicEvent() override { stop(); }

    /** Start firing; first callback at now() + period. */
    void
    start()
    {
        if (!scheduled())
            queue.scheduleIn(this, period);
    }

    /** Stop firing. */
    void
    stop()
    {
        if (scheduled())
            queue.deschedule(this);
    }

    void
    process() override
    {
        fn();
        queue.scheduleIn(this, period);
    }

    std::string name() const override { return label; }

  private:
    EventQueue &queue;
    Tick period;
    std::function<void()> fn;
    std::string label;
};

} // namespace sim

#endif // IDIO_SIM_PERIODIC_HH
