/**
 * @file
 * ExperimentConfig helpers.
 */

#include "experiment_config.hh"

#include <cstdio>

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

std::string
ExperimentConfig::summary() const
{
    const char *trafficName = "external";
    switch (traffic) {
      case TrafficKind::Steady:
        trafficName = "steady";
        break;
      case TrafficKind::Bursty:
        trafficName = "bursty";
        break;
      case TrafficKind::Poisson:
        trafficName = "poisson";
        break;
      case TrafficKind::None:
        break;
    }
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%ux %s, policy=%s, ring=%u, pkt=%uB, %s @ %.0f Gbps%s",
                  numNfs, nfKindName(nfKind),
                  idio::policyName(idio.policy), nic.ringSize,
                  frameBytes, trafficName, rateGbps,
                  withAntagonist ? ", +LLCAntagonist" : "");
    std::string out = buf;
    if (multiQueue()) {
        std::snprintf(buf, sizeof(buf), ", rxq=%u, flows=%llu",
                      rxQueues,
                      static_cast<unsigned long long>(
                          totalFlows
                              ? totalFlows
                              : std::uint64_t(flowsPerNf) * numNfs));
        out += buf;
    }
    if (tenantMode()) {
        std::snprintf(buf, sizeof(buf), ", tenants=%zu(%s)",
                      tenants.size(),
                      tenantPartitionName(tenantPartition));
        out += buf;
    }
    return out;
}

} // namespace harness
