/**
 * @file
 * Cache-hierarchy invariant implementations.
 */

#include "invariants.hh"

#include <cstdio>
#include <string>
#include <unordered_map>

#include "cache/hierarchy.hh"

namespace cache
{

namespace
{

std::string
hexAddr(sim::Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  (unsigned long long)addr);
    return buf;
}

/** Visit every valid line of @p array. */
template <typename Fn>
void
forEachValid(const TagArray &array, Fn &&fn)
{
    for (std::uint32_t s = 0; s < array.numSets(); ++s) {
        for (std::uint32_t w = 0; w < array.assoc(); ++w) {
            const CacheLine l = array.lineAt(s, w);
            if (l.valid)
                fn(l, s, w);
        }
    }
}

void
checkL1Inclusion(MemoryHierarchy &hier, sim::InvariantReport &report)
{
    for (sim::CoreId c = 0; c < hier.numCores(); ++c) {
        forEachValid(hier.l1(c).tags(), [&](const CacheLine &l,
                                            std::uint32_t,
                                            std::uint32_t) {
            if (!hier.mlcOf(c).contains(l.addr)) {
                report.fail("L1 line " + hexAddr(l.addr) + " of core " +
                            std::to_string(c) +
                            " has no MLC backing (inclusion violated)");
            }
        });
    }
}

void
checkOwnershipAndExclusivity(MemoryHierarchy &hier,
                             sim::InvariantReport &report)
{
    // addr -> first core seen holding it in its MLC.
    std::unordered_map<sim::Addr, sim::CoreId> owners;
    for (sim::CoreId c = 0; c < hier.numCores(); ++c) {
        forEachValid(hier.mlcOf(c).tags(), [&](const CacheLine &l,
                                               std::uint32_t,
                                               std::uint32_t) {
            const auto [it, inserted] = owners.emplace(l.addr, c);
            if (!inserted) {
                report.fail("line " + hexAddr(l.addr) +
                            " valid in MLCs of cores " +
                            std::to_string(it->second) + " and " +
                            std::to_string(c) +
                            " (single-owner violated)");
            }
            if (hier.llc().contains(l.addr)) {
                report.fail("line " + hexAddr(l.addr) +
                            " valid in both MLC of core " +
                            std::to_string(c) +
                            " and the LLC (exclusivity violated)");
            }
        });
    }
}

void
checkDirectoryConsistency(MemoryHierarchy &hier,
                          sim::InvariantReport &report)
{
    const MlcDirectory &dir = hier.directory();

    // Forward: every valid MLC line names its core as the owner.
    for (sim::CoreId c = 0; c < hier.numCores(); ++c) {
        forEachValid(hier.mlcOf(c).tags(), [&](const CacheLine &l,
                                               std::uint32_t,
                                               std::uint32_t) {
            if (dir.ownerOf(l.addr) != static_cast<int>(c)) {
                report.fail("MLC line " + hexAddr(l.addr) + " of core " +
                            std::to_string(c) +
                            " is untracked by the directory");
            }
        });
    }

    // Backward: every directory owner holds a real MLC copy.
    forEachValid(dir.tags(), [&](const CacheLine &entry, std::uint32_t,
                                 std::uint32_t) {
        for (sim::CoreId c = 0; c < 64; ++c) {
            if (!(entry.sharers & (std::uint64_t(1) << c)))
                continue;
            if (c >= hier.numCores()) {
                report.fail("directory entry " + hexAddr(entry.addr) +
                            " names nonexistent core " +
                            std::to_string(c));
            } else if (!hier.mlcOf(c).contains(entry.addr)) {
                report.fail("directory entry " + hexAddr(entry.addr) +
                            " claims core " + std::to_string(c) +
                            " as owner but its MLC lacks the line");
            }
        }
    });
}

void
checkDdioWayConfinement(MemoryHierarchy &hier,
                        sim::InvariantReport &report)
{
    const NonInclusiveLlc &llc = hier.llc();
    forEachValid(llc.tags(), [&](const CacheLine &l, std::uint32_t set,
                                 std::uint32_t way) {
        if (l.ddioAlloc && way >= llc.ddioWays()) {
            report.fail("DDIO-allocated line " + hexAddr(l.addr) +
                        " sits in way " + std::to_string(way) +
                        " of set " + std::to_string(set) +
                        " outside the " +
                        std::to_string(llc.ddioWays()) +
                        "-way DDIO partition");
        }
    });
}

} // namespace

void
registerCacheInvariants(sim::InvariantChecker &checker,
                        MemoryHierarchy &hier)
{
    checker.registerInvariant(
        "cache.l1-subset-of-mlc", [&hier](sim::InvariantReport &r) {
            checkL1Inclusion(hier, r);
        });
    checker.registerInvariant(
        "cache.mlc-single-owner-exclusive",
        [&hier](sim::InvariantReport &r) {
            checkOwnershipAndExclusivity(hier, r);
        });
    checker.registerInvariant(
        "cache.directory-consistent",
        [&hier](sim::InvariantReport &r) {
            checkDirectoryConsistency(hier, r);
        });
    checker.registerInvariant(
        "cache.ddio-way-confinement",
        [&hier](sim::InvariantReport &r) {
            checkDdioWayConfinement(hier, r);
        });
}

} // namespace cache
