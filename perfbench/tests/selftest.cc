/**
 * @file
 * The benchmark's own tests: span self-time arithmetic, metric-name
 * syntax, percentile selection, and digest stability on shortened
 * workloads. Exit status 0 when every check passes.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_selftest
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cstdio>
#include <string>

#include "ledger.hh"
#include "metrics.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
            ++failures;                                                  \
        }                                                                \
    } while (0)

Span
span(const char *name, std::int64_t lo, std::int64_t hi, int parent)
{
    Span s;
    s.name = name;
    s.startNs = lo;
    s.endNs = hi;
    s.parent = parent;
    return s;
}

void
testSelfTimes()
{
    // root [0,100) holds [10,30), [40,50) and [60,70); the last has a
    // grandchild. A second root has no children.
    const std::vector<Span> spans = {
        span("root", 0, 100, -1), span("a", 10, 30, 0),
        span("b", 40, 50, 0),     span("d", 60, 70, 0),
        span("d.x", 62, 65, 3),   span("other", 200, 250, -1),
    };
    const auto self = selfTimes(spans);
    CHECK(self[0] == 100 - (20 + 10 + 10));
    CHECK(self[1] == 20);
    CHECK(self[2] == 10);
    CHECK(self[3] == 10 - 3);
    CHECK(self[4] == 3);
    CHECK(self[5] == 50);

    // A recorder nests spans by open order and computes the same.
    SpanRecorder rec(true);
    {
        ScopedSpan outer(rec, "outer");
        { ScopedSpan inner(rec, "inner"); }
        { ScopedSpan inner2(rec, "inner2"); }
    }
    CHECK(rec.size() == 3);
    CHECK(rec.spans()[0].parent == -1);
    CHECK(rec.spans()[1].parent == 0);
    CHECK(rec.spans()[2].parent == 0);
    const auto rs = selfTimes(rec.spans());
    CHECK(rs[0] == rec.spans()[0].duration() -
                       rec.spans()[1].duration() -
                       rec.spans()[2].duration());

    SpanRecorder off(false);
    CHECK(off.open("x") == -1);
    off.close(-1);
    CHECK(off.size() == 0);
}

void
testMetricNames()
{
    CHECK(validMetricName("pkts_per_host_s"));
    CHECK(validMetricName("cache.pcie_write_ns"));
    CHECK(validMetricName("a-b.c_9"));
    CHECK(validMetricName("9lives"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName(".hidden"));
    CHECK(!validMetricName("_under"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/name"));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(validMetricName(std::string(64, 'a')));
    for (const std::string &n : counterNames())
        CHECK(validMetricName(n));
    CHECK(counterNames().size() == kCounterCount);

    CHECK(validUnit("pkt/s"));
    CHECK(validUnit("%"));
    CHECK(!validUnit(""));
    CHECK(!validUnit("m s"));
    CHECK(!validUnit(std::string(17, 's')));
}

void
testPercentiles()
{
    CHECK(tailPercentile(18432) == 99.0);
    CHECK(tailPercentile(1000) == 99.0);
    CHECK(tailPercentile(999) == 98.0);
    CHECK(tailPercentile(500) == 98.0);
    CHECK(tailPercentile(100) == 90.0);
    CHECK(tailPercentile(10) == 50.0);

    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 1; i <= 100; ++i)
        v.push_back(i);
    CHECK(nearestRank(v, 50.0) == 50);
    CHECK(nearestRank(v, 99.0) == 99);
    CHECK(nearestRank(v, 100.0) == 100);
    CHECK(nearestRank(v, 0.0) == 1);
    CHECK(nearestRank({}, 50.0) == 0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);

    CHECK(formatNumber(0.1) == "0.1");
    CHECK(resultLine(true, 2, 0, {{"x", "s", 1.5}}) ==
          "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
          "\"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}

/** The first @p n systems of workload @p name under @p seed. */
Workload
shortened(const std::string &name, std::uint64_t seed, std::size_t n)
{
    Workload w;
    CHECK(makeWorkload(name, seed, w));
    if (w.systems.size() > n)
        w.systems.resize(n);
    return w;
}

void
testDigestStability(const std::string &name, std::size_t systems)
{
    const Workload w = shortened(name, 1, systems);
    const RepResult a = runRep(w, {});
    const RepResult b = runRep(w, {});

    SpanRecorder spans(true);
    ProbeResult probe;
    RepOptions traced;
    traced.spans = &spans;
    traced.probe = &probe;
    const RepResult c = runRep(w, traced);

    for (const RepResult *r : {&a, &b, &c})
        for (const std::string &e : r->errors)
            std::printf("  %s: %s\n", name.c_str(), e.c_str());
    CHECK(a.errors.empty() && b.errors.empty() && c.errors.empty());
    CHECK(a.digest == b.digest);  // repeatable
    CHECK(a.digest == c.digest);  // tracing and the probe are invisible
    CHECK(probe.done);
    CHECK(probe.blobKb > 0.0);
    CHECK(c.counters[kProcessed] ==
          static_cast<double>(c.totals.processedPackets));
    CHECK(c.counters[kEvents] > 0.0);

    const RepResult other = runRep(shortened(name, 2, systems), {});
    CHECK(other.errors.empty());
    CHECK(other.digest != a.digest); // the seed reaches the simulation
}

} // anonymous namespace

int
main()
{
    testSelfTimes();
    testMetricNames();
    testPercentiles();
    testDigestStability("fig_sweep", 2);
    testDigestStability("tenant_mix", 1);
    if (failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
