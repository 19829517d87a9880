/**
 * @file
 * InvariantChecker implementation.
 */

#include "invariant_checker.hh"

#include <memory>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace sim
{

InvariantChecker::InvariantChecker(Simulation &simulation,
                                   const std::string &name)
    : SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      sweeps(statGroup, "sweeps", "completed invariant sweeps"),
      evaluations(statGroup, "evaluations",
                  "individual invariant evaluations"),
      violations(statGroup, "violations",
                 "invariant violations detected")
{
}

void
InvariantChecker::registerInvariant(std::string invName, Invariant fn)
{
    if (!fn)
        panic("registering null invariant '%s'", invName.c_str());
    invariants.push_back({std::move(invName), std::move(fn)});
}

void
InvariantChecker::check()
{
    if (!enabled())
        return;

    InvariantReport report;
    for (const NamedInvariant &inv : invariants) {
        const std::size_t before = report.failures().size();
        inv.fn(report);
        ++evaluations;
        // Prefix new messages with the invariant's name so a combined
        // panic message attributes every violation.
        for (std::size_t i = before; i < report.failures().size(); ++i) {
            violations += 1;
            warn("invariant '%s' violated at tick %llu: %s",
                 inv.name.c_str(), (unsigned long long)now(),
                 report.failures()[i].c_str());
        }
    }
    ++sweeps;

    if (!report.clean()) {
        panic("%zu invariant violation(s) at tick %llu in '%s'; "
              "first: %s",
              report.failures().size(), (unsigned long long)now(),
              name().c_str(), report.failures().front().c_str());
    }
}

void
registerEventQueueInvariants(InvariantChecker &checker, EventQueue &eq)
{
    checker.registerInvariant(
        "eventq.no-past-events", [&eq](InvariantReport &report) {
            const Tick next = eq.nextEventTick();
            if (next != maxTick && next < eq.now()) {
                report.fail("pending event at tick " +
                            std::to_string(next) +
                            " is before current tick " +
                            std::to_string(eq.now()));
            }
        });

    // Structural audit of the scheduler internals: wheel occupancy
    // bitmaps, slot placement/ordering, overflow-heap squash counts
    // and the live-entry accounting must all agree.
    checker.registerInvariant(
        "eventq.self-consistent", [&eq](InvariantReport &report) {
            if (!eq.selfCheckConsistent())
                report.fail("scheduler structures inconsistent "
                            "(wheel slots/bitmaps/overflow accounting)");
        });

    // Dequeue-tick monotonicity: time observed by consecutive sweeps
    // must never move backwards.
    auto lastSeen = std::make_shared<Tick>(0);
    checker.registerInvariant(
        "eventq.monotonic-time",
        [&eq, lastSeen](InvariantReport &report) {
            if (eq.now() < *lastSeen) {
                report.fail("current tick " + std::to_string(eq.now()) +
                            " went backwards (last sweep saw " +
                            std::to_string(*lastSeen) + ")");
            }
            *lastSeen = eq.now();
        });
}

} // namespace sim
