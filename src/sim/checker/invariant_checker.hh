/**
 * @file
 * Runtime invariant checker.
 *
 * The simulator's correctness rests on structural invariants (cache
 * exclusivity, directory/tag consistency, descriptor-ring legality,
 * event-time monotonicity) that a silent pointer bug can violate
 * without crashing — producing plausible-but-wrong numbers. The
 * InvariantChecker turns those invariants into machine-checked
 * assertions: subsystems register named callbacks, and check() sweeps
 * all of them. The checker owns no cadence: its caller sweeps between
 * run calls (harness::TestSystem::runFor does, on a simulated-time
 * grid), so every sweep observes quiescent inter-event state. Any
 * recorded failure panics with the full list of violations.
 *
 * Cost control: the whole subsystem is compiled down to no-ops when
 * the build sets -DIDIO_CHECK_INVARIANTS=0 (CMake option
 * IDIO_CHECK_INVARIANTS=OFF), and can be disabled at runtime with
 * setEnabled(false).
 *
 * Adding a new invariant (see DESIGN.md "Correctness tooling"):
 * write a `void(sim::InvariantReport &)` callback that calls
 * `report.fail(...)` for each violation it finds, and register it with
 * `checker.registerInvariant("subsystem.rule-name", fn)`.
 */

#ifndef IDIO_SIM_CHECKER_INVARIANT_CHECKER_HH
#define IDIO_SIM_CHECKER_INVARIANT_CHECKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/types.hh"

#ifndef IDIO_CHECK_INVARIANTS
#define IDIO_CHECK_INVARIANTS 1
#endif

namespace sim
{

class EventQueue;

/**
 * Collector handed to every invariant callback; each detected
 * violation is recorded with fail(). An invariant that records nothing
 * passed.
 */
class InvariantReport
{
  public:
    /** Record one violation. @p message should name the broken rule
     *  and the offending state (address, slot index, tick...). */
    void fail(std::string message)
    {
        messages.push_back(std::move(message));
    }

    /** True when no violation has been recorded. */
    bool clean() const { return messages.empty(); }

    /** All recorded violation messages. */
    const std::vector<std::string> &failures() const { return messages; }

  private:
    std::vector<std::string> messages;
};

/**
 * SimObject that owns the registered invariants and runs them on
 * demand via check().
 */
class InvariantChecker : public SimObject
{
  public:
    /** An invariant callback: inspect model state, report failures. */
    using Invariant = std::function<void(InvariantReport &)>;

    /** False when the build compiled the checker out. */
    static constexpr bool compiledIn = (IDIO_CHECK_INVARIANTS != 0);

    InvariantChecker(Simulation &simulation, const std::string &name);

    /** Register @p fn under @p invName (used in violation reports). */
    void registerInvariant(std::string invName, Invariant fn);

    /** Number of registered invariants. */
    std::size_t numInvariants() const { return invariants.size(); }

    /**
     * Run one full sweep immediately. panic()s listing every violation
     * when any invariant fails. No-op when compiled out or disabled.
     */
    void check();

    /** Runtime kill switch (independent of the compile-time gate). */
    void setEnabled(bool on) { isEnabled = on; }

    /** True when sweeps actually evaluate invariants. */
    bool enabled() const { return compiledIn && isEnabled; }

    /** @{ Counters (every invariant is evaluated at least once iff
     *  sweeps() >= 1, and evaluations() == sweeps() * numInvariants()).
     *  They are plain members, not registry stats, so stats output
     *  and checkpoints are the same whether the checker is compiled
     *  in or not. */
    std::uint64_t sweeps() const { return numSweeps; }
    std::uint64_t evaluations() const { return numEvaluations; }
    std::uint64_t violations() const { return numViolations; }
    /** @} */

  private:
    struct NamedInvariant
    {
        std::string name;
        Invariant fn;
    };

    std::vector<NamedInvariant> invariants;
    bool isEnabled = true;
    std::uint64_t numSweeps = 0;      ///< completed full sweeps
    std::uint64_t numEvaluations = 0; ///< individual evaluations
    std::uint64_t numViolations = 0;  ///< failures recorded
};

/**
 * Register the event-queue invariants on @p checker:
 *  - no live pending event is scheduled before the current tick;
 *  - simulated time never moves backwards between sweeps.
 */
void registerEventQueueInvariants(InvariantChecker &checker,
                                  EventQueue &eq);

} // namespace sim

#endif // IDIO_SIM_CHECKER_INVARIANT_CHECKER_HH
