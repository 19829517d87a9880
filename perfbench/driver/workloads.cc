/**
 * @file
 * Workload definitions and the repetition runner.
 */

#include "workloads.hh"

#include <memory>
#include <optional>
#include <sstream>

#include "metrics.hh"
#include "stats/json.hh"
#include "tenant_scenario.hh"
#include "stats/registry.hh"

namespace perfbench
{

namespace
{

/** Measurement-loop quantum (the figure benches' 10 us). */
constexpr sim::Tick quantum = 10 * sim::oneUs;

/** A burst that has not drained by this simulated time fails. */
constexpr sim::Tick burstLimit = 50 * sim::oneMs;

/** Simulated time run after the drain so TX completions settle. */
constexpr sim::Tick settle = 100 * sim::oneUs;

std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Seeded offered-rate factor of generator @p slot in [0.995, 1.0): a
 * new seed moves every arrival time while the work per packet stays
 * within about half a percent.
 */
double
rateFactor(std::uint64_t seed, std::uint64_t slot)
{
    const std::uint64_t r = splitmix64(seed ^ splitmix64(slot + 1));
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    return 1.0 - 0.005 * u;
}

harness::ExperimentConfig
singleBurst(harness::ExperimentConfig cfg)
{
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst per run
    return cfg;
}

/**
 * fig_sweep: the paper's 2-core legacy machine, one cold single burst
 * of ring-size packets per NF under each policy and NF/rate pair.
 */
std::vector<SystemPlan>
figSweep(std::uint64_t seed)
{
    struct NfCase
    {
        const char *label;
        harness::NfKind kind;
        double gbps;
    };
    const NfCase nfCases[] = {
        {"td100", harness::NfKind::TouchDrop, 100.0},
        {"td25", harness::NfKind::TouchDrop, 25.0},
        {"l2fwd100", harness::NfKind::L2Fwd, 100.0},
    };
    std::vector<SystemPlan> plans;
    std::uint64_t slot = 0;
    for (const idio::Policy policy :
         {idio::Policy::Ddio, idio::Policy::Static, idio::Policy::Idio}) {
        for (const NfCase &nc : nfCases) {
            harness::ExperimentConfig cfg;
            cfg.numNfs = 2;
            cfg.nfKind = nc.kind;
            cfg.rateGbps = nc.gbps * rateFactor(seed, slot++);
            cfg.applyPolicy(policy);
            cfg.seed = seed;
            SystemPlan p;
            p.label = std::string(idio::policyName(policy)) + "/" +
                      nc.label;
            p.cfg = singleBurst(cfg);
            plans.push_back(std::move(p));
        }
    }
    return plans;
}

/**
 * scaled32: the paper-shape many-core machine, unsharded: 32 cores,
 * 32 RX queues with RSS/RETA over 1M synthetic flows, IDIO, 256-entry
 * rings, one 8192-packet burst.
 */
std::vector<SystemPlan>
scaled32(std::uint64_t seed)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.burstPackets = 8192;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0 * rateFactor(seed, 0);
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.seed = seed;
    SystemPlan p;
    p.label = "idio/scaled32";
    p.cfg = singleBurst(cfg);
    return {p};
}

/**
 * tenant_mix: the canonical 3-tenant scenario of bench/tenant_scenario.hh
 * (rpc, bursty batch that departs halfway, LLC antagonist) under each
 * of its LLC-management schemes, for its fixed horizon. The seed scales
 * the rpc and batch offered rates.
 */
std::vector<SystemPlan>
tenantMix(std::uint64_t seed)
{
    std::vector<SystemPlan> plans;
    for (const bench::TenantScheme &s : bench::tenantSchemes) {
        harness::ExperimentConfig cfg = bench::tenantMixConfig(s);
        harness::TenantSpec &rpc = cfg.tenants.at(0);
        rpc.rateGbps *= rateFactor(seed, 0);
        cfg.rateGbps *= rateFactor(seed, 1); // the batch tenant's rate
        cfg.seed = seed;

        SystemPlan p;
        p.label = std::string(s.label) + "/tenant_mix";
        p.mode = RunMode::Horizon;
        p.horizon = bench::tenantHorizon;
        p.latencyNfs = rpc.cores; // rpc's NF cores come first
        p.cfg = std::move(cfg);
        plans.push_back(std::move(p));
    }
    return plans;
}

/** Sum of every registry stat named @p stat. */
std::uint64_t
sumStat(harness::TestSystem &sys, const char *stat)
{
    double sum = 0.0;
    sys.simulation().statsRegistry().forEach(
        [&](const stats::StatGroup &, const stats::Stat &s) {
            if (s.name() == stat)
                sum += s.value();
        });
    return static_cast<std::uint64_t>(sum);
}

void
addTotals(harness::Totals &into, const harness::Totals &t)
{
    into.mlcWritebacks += t.mlcWritebacks;
    into.nfMlcWritebacks += t.nfMlcWritebacks;
    into.mlcPcieInvals += t.mlcPcieInvals;
    into.llcWritebacks += t.llcWritebacks;
    into.dramReads += t.dramReads;
    into.dramWrites += t.dramWrites;
    into.rxPackets += t.rxPackets;
    into.rxDrops += t.rxDrops;
    into.processedPackets += t.processedPackets;
}

/** Hash of the system's simulated outputs: stats JSON plus totals. */
std::uint64_t
outputDigest(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    const harness::Totals t = sys.totals();
    os << "\ntotals " << t.mlcWritebacks << ' ' << t.nfMlcWritebacks << ' '
       << t.mlcPcieInvals << ' ' << t.llcWritebacks << ' ' << t.dramReads
       << ' ' << t.dramWrites << ' ' << t.rxPackets << ' ' << t.rxDrops
       << ' ' << t.processedPackets << '\n';
    for (const harness::TenantTotals &tt : sys.tenantTotals())
        os << "tenant " << tt.name << ' ' << tt.rxPackets << ' '
           << tt.rxDrops << ' ' << tt.processedPackets << ' '
           << tt.mlcWritebacks << ' ' << tt.p50 << ' ' << tt.p99 << ' '
           << tt.p999 << ' ' << tt.ways << '\n';
    return fnv1a(os.str());
}

/** Run one system of a repetition, accumulating into @p rep. */
void
runSystem(const SystemPlan &plan, const RepOptions &opts, RepResult &rep)
{
    SpanRecorder off(false);
    SpanRecorder &spans = opts.spans ? *opts.spans : off;
    const bool traced = spans.enabled();
    const harness::ExperimentConfig &cfg = plan.cfg;
    ScopedSpan systemSpan(spans, traced ? "system:" + plan.label : "");

    const std::int64_t t0 = nowNs();
    std::unique_ptr<harness::TestSystem> sys;
    {
        ScopedSpan s(spans, "construct");
        sys = std::make_unique<harness::TestSystem>(cfg);
    }
    {
        ScopedSpan s(spans, "start");
        sys->start();
    }
    const std::int64_t t1 = nowNs();

    std::optional<CounterSet> counters;
    if (traced)
        counters.emplace(*sys);

    const bool burst = plan.mode == RunMode::Burst;
    const sim::Tick limit = burst ? burstLimit : plan.horizon;
    const std::uint64_t expected = cfg.expectedBurstTotal();
    bool probePending = opts.probe != nullptr && traced;
    std::int64_t pausedNs = 0;
    bool drained = false;

    auto step = [&](sim::Tick duration) {
        Snapshot before{};
        if (traced)
            before = counters->snapshot();
        const int id = spans.open("runFor");
        sys->runFor(duration);
        spans.close(id);
        if (traced) {
            const Snapshot after = counters->snapshot();
            std::vector<double> delta(kCounterCount);
            for (unsigned c = 0; c < kCounterCount; ++c) {
                delta[c] = after[c] - before[c];
                rep.counters[c] += delta[c];
            }
            spans.attach(id, std::move(delta));
        }
    };

    while (sys->simulation().now() < limit) {
        step(quantum);
        harness::Totals t;
        {
            ScopedSpan s(spans, "totals");
            t = sys->totals();
        }
        if (burst && t.processedPackets + t.rxDrops >= expected &&
            t.rxPackets >= expected) {
            drained = true;
            break;
        }
        const bool midway =
            burst ? 2 * t.processedPackets >= expected
                  : 2 * sys->simulation().now() >= plan.horizon;
        if (probePending && midway) {
            probePending = false;
            const std::int64_t p0 = nowNs();
            *opts.probe = probeClone(*sys, cfg, spans);
            pausedNs += nowNs() - p0;
        }
    }
    if (burst)
        step(settle);
    const std::int64_t t2 = nowNs();

    rep.setupNs += static_cast<double>(t1 - t0);
    rep.simNs += static_cast<double>(t2 - t1 - pausedNs);

    // Correctness: packets are conserved, and a burst drains fully.
    const harness::Totals t = sys->totals();
    const std::uint64_t generated = sumStat(*sys, "packetsSent");
    auto fail = [&](const std::string &what) {
        rep.errors.push_back(plan.label + ": " + what);
    };
    if (t.rxPackets != generated)
        fail("NIC arrivals " + std::to_string(t.rxPackets) +
             " != generated " + std::to_string(generated));
    if (t.processedPackets == 0)
        fail("no packet was processed");
    if (burst) {
        if (!drained)
            fail("burst did not drain within 50 ms");
        if (t.rxPackets != expected)
            fail("arrivals " + std::to_string(t.rxPackets) +
                 " != burst size " + std::to_string(expected));
        if (t.processedPackets + t.rxDrops != t.rxPackets)
            fail("processed + drops != arrivals after the drain");
    } else if (t.processedPackets + t.rxDrops > t.rxPackets) {
        fail("processed + drops exceed arrivals");
    }

    addTotals(rep.totals, t);
    rep.generated += generated;
    rep.events += sys->simulation().totalProcessedEvents();
    const std::uint32_t pop =
        plan.latencyNfs ? plan.latencyNfs : sys->numNfs();
    for (std::uint32_t i = 0; i < pop && i < sys->numNfs(); ++i) {
        const auto &samples = sys->nf(i).latency.rawSamples();
        rep.latency.insert(rep.latency.end(), samples.begin(),
                           samples.end());
    }
    rep.digest = fnv1a(std::to_string(outputDigest(*sys)) + ";",
                       rep.digest);

    ScopedSpan s(spans, "destroy");
    sys.reset();
}

} // anonymous namespace

namespace
{

struct WorkloadDef
{
    const char *name;
    const char *why;
    std::vector<SystemPlan> (*systems)(std::uint64_t seed);
};

const WorkloadDef workloadDefs[] = {
    {"fig_sweep",
     "figure-reproduction path: 9 cold single bursts on the 2-core "
     "legacy machine; cache work dominates",
     figSweep},
    {"scaled32",
     "32 polling PMDs, RSS over 1M flows, a 32-MLC directory and a "
     "large host working set",
     scaled32},
    {"tenant_mix",
     "LLC antagonist, CAT-masked fills, steady+bursty traffic with "
     "churn; setup-heavy",
     tenantMix},
};

} // anonymous namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadDef &d : workloadDefs)
        names.push_back(d.name);
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    for (const WorkloadDef &d : workloadDefs) {
        if (name == d.name) {
            out.name = d.name;
            out.why = d.why;
            out.systems = d.systems(seed);
            return true;
        }
    }
    return false;
}

RepResult
runRep(const Workload &w, const RepOptions &opts)
{
    RepResult rep;
    rep.digest = fnv1a(w.name);
    if (opts.spans)
        rep.spanBegin = opts.spans->size();
    for (std::size_t i = 0; i < w.systems.size(); ++i) {
        RepOptions o = opts;
        if (i != 0)
            o.probe = nullptr; // only the first system is cloned
        runSystem(w.systems[i], o, rep);
    }
    if (opts.spans)
        rep.spanEnd = opts.spans->size();
    return rep;
}

} // namespace perfbench
