/**
 * @file
 * LlcAntagonist implementation.
 */

#include "llc_antagonist.hh"

#include "ckpt/serializer.hh"
#include "sim/simulation.hh"

namespace nf
{

namespace
{

/** Compute cost per access in ticks. */
constexpr sim::Tick perAccessCost =
    sim::nsToTicks(LlcAntagonist::perAccessCostNs);

} // anonymous namespace

LlcAntagonist::LlcAntagonist(sim::Simulation &simulation,
                             const std::string &name, cpu::Core &core,
                             mem::PhysAllocator &alloc,
                             std::uint64_t bufferBytes)
    : sim::SimObject(simulation, name),
      statGroup(simulation.statsRegistry(), name),
      accesses(statGroup, "accesses", "random accesses performed"),
      accessTicks(statGroup, "accessTicks",
                  "total latency of random accesses (ticks)"),
      core(core), base(alloc.allocate(bufferBytes, mem::pageSize)),
      lines(bufferBytes / mem::lineSize),
      rng(simulation.deriveRng(name).next())
{
}

void
LlcAntagonist::warmUp()
{
    for (std::uint64_t i = 0; i < lines; ++i)
        core.read(base + i * mem::lineSize, 1);
    // The warm-up is logically instantaneous: drop the DRAM channel
    // backlog it accumulated so measurement starts clean.
    core.hierarchy().dram().resetTiming();
}

void
LlcAntagonist::launch()
{
    core.run(*this);
}

sim::Tick
LlcAntagonist::step(cpu::Core &c)
{
    sim::Tick lat = 0;
    for (std::uint32_t i = 0; i < accessesPerStep; ++i) {
        const sim::Addr addr =
            base + rng.below(lines) * mem::lineSize;
        sim::Tick access;
        if (rng.chance(writeFraction))
            access = c.write(addr, 1);
        else
            access = c.read(addr, 1);
        access += perAccessCost;
        lat += access;
        ++accesses;
        accessTicks += access;
    }
    return lat > 0 ? lat : 1;
}

double
LlcAntagonist::ticksPerAccess() const
{
    if (accesses.get() == 0)
        return 0.0;
    return static_cast<double>(accessTicks.get()) /
           static_cast<double>(accesses.get());
}

void
LlcAntagonist::serialize(ckpt::Serializer &s) const
{
    for (const std::uint64_t w : rng.state())
        s.writeU64(w);
}

void
LlcAntagonist::unserialize(ckpt::Deserializer &d)
{
    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &w : st)
        w = d.readU64();
    rng.setState(st);
}

} // namespace nf
