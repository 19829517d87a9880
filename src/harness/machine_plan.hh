/**
 * @file
 * The machine plan, the one description of a run's machine shape: a
 * list of NIC ports, each a range of NF cores, plus a list of
 * aggressor cores. TestSystem builds from it, and
 * ExperimentConfig::summary() and the benches' config echo describe
 * it, so what a run prints is what it built.
 */

#ifndef IDIO_HARNESS_MACHINE_PLAN_HH
#define IDIO_HARNESS_MACHINE_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "harness/experiment_config.hh"
#include "tenant/tenant.hh"

namespace harness
{

/** One NIC port of the machine plan. */
struct PortPlan
{
    std::string name;      ///< prefix of its NIC and generator
    sim::CoreId firstCore; ///< ring q is polled by NF core firstCore + q
    std::uint32_t numQueues;
    /** RSS over this many synthetic flows; 0: its own flow list. */
    std::uint64_t synthFlows;
    NfKind nfKind;
    TrafficKind traffic;
    double rateGbps;
    sim::Tick stopAt;
    std::uint8_t dscp;
};

/** One aggressor core: an nf::LlcAntagonist on a shrunken MLC. */
struct AggressorPlan
{
    std::string name;
    sim::CoreId core;
};

/** The machine: NF cores first, in port order, then aggressors. */
struct MachinePlan
{
    std::uint32_t numCores = 0;
    std::vector<PortPlan> ports;
    std::vector<AggressorPlan> aggressors;
    std::vector<tenant::Tenant> tenants; ///< empty without cfg.tenants

    /**
     * @p base with the fields the plan owns set: the core count and
     * the aggressors' shrunken MLCs.
     */
    cache::HierarchyConfig
    hierarchy(const cache::HierarchyConfig &base) const;
};

/**
 * Derive the machine from cfg.tenants or, when that is empty, from the
 * run-wide fields describing the default tenant set: numNfs cores of
 * nfKind (a port each, or one port with rxQueues rings) plus the
 * withAntagonist aggressor. An inconsistent config is fatal.
 */
MachinePlan planMachine(const ExperimentConfig &cfg);

} // namespace harness

#endif // IDIO_HARNESS_MACHINE_PLAN_HH
