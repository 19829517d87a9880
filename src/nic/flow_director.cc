/**
 * @file
 * FlowDirector implementation.
 */

#include "flow_director.hh"

#include "sim/logging.hh"

namespace nic
{

FlowDirector::FlowDirector(std::uint32_t numCores,
                           std::uint32_t rssTableEntries,
                           std::uint32_t rssQueues)
    : numCores(numCores)
{
    if (numCores == 0)
        sim::fatal("FlowDirector needs at least one core");
    if (rssTableEntries != 0) {
        if ((rssTableEntries & (rssTableEntries - 1)) != 0)
            sim::fatal("RSS table size must be a power of two");
        if (rssQueues == 0)
            rssQueues = numCores;
        if (rssQueues > numCores)
            sim::fatal("FlowDirector: RETA fill over %u queues exceeds "
                       "numCores %u",
                       rssQueues, numCores);
        // Default fill round-robins queues over the table, the same
        // layout drivers program at device init.
        reta.resize(rssTableEntries);
        for (std::uint32_t i = 0; i < rssTableEntries; ++i)
            reta[i] = i % rssQueues;
    }
}

void
FlowDirector::checkTarget(const char *what, std::uint32_t target) const
{
    // lookup() hands its result to the classifier as a core index.
    if (target >= numCores)
        sim::fatal("FlowDirector: %s target %u out of range (numCores "
                   "%u)",
                   what, target, numCores);
}

void
FlowDirector::addRule(const net::FiveTuple &flow, sim::CoreId core)
{
    checkTarget("EP rule", core);
    rules[flow] = core;
}

sim::CoreId
FlowDirector::lookup(const net::FiveTuple &flow) const
{
    auto it = rules.find(flow);
    if (it != rules.end())
        return it->second;
    return rssQueue(flow);
}

std::uint32_t
FlowDirector::rssQueue(const net::FiveTuple &flow) const
{
    const std::uint32_t hash = net::toeplitzHash(flow);
    if (reta.empty())
        return hash % numCores; // legacy direct modulus
    return reta[hash & (static_cast<std::uint32_t>(reta.size()) - 1)];
}

void
FlowDirector::setIndirection(const std::vector<std::uint32_t> &table)
{
    if (reta.empty())
        sim::fatal("setIndirection: flow director is in legacy RSS "
                   "mode (no RETA)");
    if (table.size() != reta.size())
        sim::fatal("setIndirection: size mismatch (RETA %zu, new %zu)",
                   reta.size(), table.size());
    for (const std::uint32_t q : table)
        checkTarget("RETA entry", q);
    reta = table;
}

} // namespace nic
