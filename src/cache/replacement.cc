/**
 * @file
 * Replacement policy names.
 */

#include "replacement.hh"

#include "sim/logging.hh"

namespace cache
{

ReplKind
parseReplacement(const std::string &name)
{
    if (name == "lru")
        return ReplKind::Lru;
    if (name == "random")
        return ReplKind::Random;
    if (name == "srrip")
        return ReplKind::Srrip;
    sim::fatal("unknown replacement policy '%s'", name.c_str());
}

} // namespace cache
