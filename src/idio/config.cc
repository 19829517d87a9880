/**
 * @file
 * Policy names.
 */

#include "config.hh"

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

} // namespace idio
