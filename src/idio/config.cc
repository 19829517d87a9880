/**
 * @file
 * Policy presets.
 */

#include "config.hh"

#include "sim/logging.hh"

namespace idio
{

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Ddio:
        return "DDIO";
      case Policy::InvalidateOnly:
        return "Invalidate";
      case Policy::PrefetchOnly:
        return "Prefetch";
      case Policy::Static:
        return "Static";
      case Policy::Idio:
        return "IDIO";
    }
    return "?";
}

std::optional<Policy>
tryParsePolicy(const std::string &name)
{
    if (name == "ddio" || name == "DDIO")
        return Policy::Ddio;
    if (name == "invalidate" || name == "Invalidate")
        return Policy::InvalidateOnly;
    if (name == "prefetch" || name == "Prefetch")
        return Policy::PrefetchOnly;
    if (name == "static" || name == "Static")
        return Policy::Static;
    if (name == "idio" || name == "IDIO")
        return Policy::Idio;
    return std::nullopt;
}

Policy
parsePolicy(const std::string &name)
{
    if (const auto p = tryParsePolicy(name))
        return *p;
    sim::fatal("unknown IDIO policy '%s'", name.c_str());
}

IdioConfig
IdioConfig::preset(Policy p)
{
    IdioConfig cfg;
    cfg.policy = p;
    switch (p) {
      case Policy::Ddio:
        break;
      case Policy::InvalidateOnly:
        cfg.selfInvalidate = true;
        break;
      case Policy::PrefetchOnly:
        cfg.mlcPrefetch = true;
        cfg.dynamicFsm = true;
        cfg.directDram = true;
        break;
      case Policy::Static:
        cfg.selfInvalidate = true;
        cfg.mlcPrefetch = true;
        cfg.dynamicFsm = false;
        cfg.directDram = true;
        break;
      case Policy::Idio:
        cfg.selfInvalidate = true;
        cfg.mlcPrefetch = true;
        cfg.dynamicFsm = true;
        cfg.directDram = true;
        break;
    }
    return cfg;
}

} // namespace idio
