/**
 * @file
 * Domain example: a DoS-detection firewall with payload offload.
 *
 * The paper motivates application class 1 with exactly this scenario
 * (Sec. V-A): a firewall that makes drop/pass decisions from headers
 * and rarely inspects payloads. Keeping those payloads out of the LLC
 * protects co-running, cache-sensitive tenants.
 *
 * This example builds two systems:
 *   - baseline: DDIO places every inbound line in the LLC;
 *   - IDIO: senders mark firewall traffic DSCP 40 (class 1), so
 *     payloads take the selective direct-DRAM path while headers stay
 *     on the fast DCA path.
 * Both co-run an LLC-sensitive analytics stand-in (LLCAntagonist) and
 * we report the firewall's packet latency, the analytics app's memory
 * performance, and the DRAM/LLC traffic breakdown.
 */

#include <cstdio>
#include <iostream>

#include "harness/system.hh"
#include "stats/table.hh"

namespace
{

struct Result
{
    double fwP99Us;
    double analyticsTpaNs; // mean ns per analytics access
    std::uint64_t llcWritebacks;
    std::uint64_t dramWrites;
    std::uint64_t headerPrefetches;
    std::uint64_t payloadBypasses;
};

Result
run(idio::Policy policy)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = harness::NfKind::L2FwdDropPayload; // the firewall
    cfg.traffic = harness::TrafficKind::Poisson;
    cfg.rateGbps = 8.0;
    cfg.withAntagonist = true; // the analytics tenant
    cfg.antagonist.bufferBytes = 6ull << 20;
    cfg.applyPolicy(policy);

    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(20 * sim::oneMs);

    Result r;
    r.fwP99Us = sim::ticksToUs(sys.nf(0).latency.p99());
    r.analyticsTpaNs =
        sys.antagonists().front()->ticksPerAccess() / double(sim::oneNs);
    r.llcWritebacks = sys.totals().llcWritebacks;
    r.dramWrites = sys.totals().dramWrites;
    r.headerPrefetches = sys.controller().headerHints.get();
    r.payloadBypasses = sys.controller().directDramSteers.get();
    return r;
}

} // anonymous namespace

int
main()
{
    std::printf("Firewall payload offload: 2x header-only DoS "
                "firewall (class 1) + cache-sensitive analytics "
                "tenant, 8 Gbps Poisson per port\n\n");

    const Result ddio = run(idio::Policy::Ddio);
    const Result idioR = run(idio::Policy::Idio);

    stats::TablePrinter t({"metric", "DDIO", "IDIO"});
    t.addRow({"firewall p99 (us)",
              stats::TablePrinter::num(ddio.fwP99Us, 1),
              stats::TablePrinter::num(idioR.fwP99Us, 1)});
    t.addRow({"analytics ns/access",
              stats::TablePrinter::num(ddio.analyticsTpaNs, 2),
              stats::TablePrinter::num(idioR.analyticsTpaNs, 2)});
    t.addRow({"LLC writebacks", std::to_string(ddio.llcWritebacks),
              std::to_string(idioR.llcWritebacks)});
    t.addRow({"DRAM writes", std::to_string(ddio.dramWrites),
              std::to_string(idioR.dramWrites)});
    t.addRow({"header prefetches", std::to_string(ddio.headerPrefetches),
              std::to_string(idioR.headerPrefetches)});
    t.addRow({"payload DRAM bypasses",
              std::to_string(ddio.payloadBypasses),
              std::to_string(idioR.payloadBypasses)});
    t.print(std::cout);

    std::printf("\nUnder IDIO the payloads never enter the LLC "
                "(bypasses > 0, LLC writebacks collapse), the "
                "analytics tenant's memory latency improves, and the "
                "firewall keeps its fast header path.\n");
    return 0;
}
