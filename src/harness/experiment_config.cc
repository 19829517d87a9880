/**
 * @file
 * ExperimentConfig helpers.
 */

#include "experiment_config.hh"

#include <algorithm>
#include <cstdio>

#include "harness/machine_plan.hh"

namespace harness
{

const char *
nfKindName(NfKind kind)
{
    switch (kind) {
      case NfKind::TouchDrop:
        return "TouchDrop";
      case NfKind::CopyTouchDrop:
        return "CopyTouchDrop";
      case NfKind::L2Fwd:
        return "L2Fwd";
      case NfKind::L2FwdDropPayload:
        return "L2FwdDropPayload";
    }
    return "?";
}

const char *
tenantPartitionName(TenantPartition p)
{
    switch (p) {
      case TenantPartition::None:
        return "shared";
      case TenantPartition::Static:
        return "static";
      case TenantPartition::Ioca:
        return "ioca";
    }
    return "?";
}

namespace
{

const char *
trafficName(TrafficKind kind)
{
    switch (kind) {
      case TrafficKind::Steady:
        return "steady";
      case TrafficKind::Bursty:
        return "bursty";
      case TrafficKind::Poisson:
        return "poisson";
      case TrafficKind::None:
        break;
    }
    return "external";
}

} // anonymous namespace

std::string
ExperimentConfig::summary() const
{
    const MachinePlan plan = planMachine(*this);
    // Every port of the run-wide set runs its NF kind and traffic;
    // each tenant's ports run the tenant's.
    const PortPlan *runWide = plan.tenants.empty() && !plan.ports.empty()
                                  ? &plan.ports.front()
                                  : nullptr;
    char buf[160];
    std::string out;
    if (runWide) {
        std::snprintf(buf, sizeof(buf), "%zux %s",
                      plan.numCores - plan.aggressors.size(),
                      nfKindName(runWide->nfKind));
        out += buf;
    }
    for (const tenant::Tenant &t : plan.tenants) {
        const auto port = std::find_if(
            plan.ports.begin(), plan.ports.end(),
            [&](const PortPlan &p) { return p.firstCore == t.cores[0]; });
        if (port == plan.ports.end())
            continue; // an antagonist tenant: one of the aggressors
        std::snprintf(buf, sizeof(buf), "%s%s: %zux %s %s @ %.0f Gbps",
                      out.empty() ? "" : " + ", t.name.c_str(),
                      t.cores.size(), nfKindName(port->nfKind),
                      trafficName(port->traffic), port->rateGbps);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), ", policy=%s, ring=%u, pkt=%uB",
                  idio::policyName(idio.policy), nic.ringSize, frameBytes);
    out += buf;
    if (runWide) {
        std::snprintf(buf, sizeof(buf), ", %s @ %.0f Gbps",
                      trafficName(runWide->traffic), runWide->rateGbps);
        out += buf;
    }
    for (const PortPlan &p : plan.ports) {
        if (p.synthFlows == 0)
            continue;
        std::snprintf(buf, sizeof(buf), ", rxq=%u, flows=%llu",
                      p.numQueues,
                      static_cast<unsigned long long>(p.synthFlows));
        out += buf;
    }
    if (!plan.aggressors.empty()) {
        std::snprintf(buf, sizeof(buf), ", +%zux LLCAntagonist",
                      plan.aggressors.size());
        out += buf;
    }
    if (!plan.tenants.empty()) {
        std::snprintf(buf, sizeof(buf), ", tenants=%zu(%s)",
                      plan.tenants.size(),
                      tenantPartitionName(tenantPartition));
        out += buf;
    }
    return out;
}

} // namespace harness
