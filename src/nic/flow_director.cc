/**
 * @file
 * FlowDirector implementation.
 */

#include "flow_director.hh"

#include "sim/logging.hh"

namespace nic
{

FlowDirector::FlowDirector(std::uint32_t numQueues)
{
    if (numQueues == 0)
        sim::fatal("FlowDirector needs at least one queue");
    if (numQueues > retaEntries)
        sim::fatal("FlowDirector: %u queues exceed the %u-entry RETA",
                   numQueues, retaEntries);
    if (numQueues == 1)
        return;
    reta.resize(retaEntries);
    for (std::uint32_t i = 0; i < retaEntries; ++i)
        reta[i] = i % numQueues;
}

} // namespace nic
