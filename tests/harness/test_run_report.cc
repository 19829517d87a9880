/**
 * @file
 * RunReport capture and the report writer.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/run_report.hh"
#include "tenant_scenario.hh"

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream ifs(path);
    std::stringstream ss;
    ss << ifs.rdbuf();
    return ss.str();
}

std::size_t
occurrences(const std::string &text, const std::string &what)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1)) {
        ++n;
    }
    return n;
}

TEST(RunReport, CapturesTotalsTenantsAndController)
{
    const auto &scheme = bench::tenantSchemes[2]; // ioca
    const harness::ExperimentConfig cfg = bench::tenantMixConfig(scheme);
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(50 * sim::oneUs);

    const harness::RunReport r =
        harness::captureReport(sys, sys.simulation().now());
    EXPECT_EQ(r.totals, sys.totals());
    EXPECT_EQ(r.execTime, 50 * sim::oneUs);
    EXPECT_EQ(r.pcieWrites, sys.hierarchy().pcieWrites.get());
    EXPECT_EQ(r.p99, sys.nf(0).latency.p99());
    EXPECT_GT(r.antagonistTpa, 0.0);
    EXPECT_EQ(r.iocaEvaluations,
              sys.iocaController()->evaluations.get());
    EXPECT_EQ(r.traceDropped, 0u);

    EXPECT_EQ(r.tenants, sys.tenantTotals());
    ASSERT_EQ(r.tenants.size(), cfg.tenants.size());
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        EXPECT_EQ(r.tenants[i].slo, cfg.tenants[i].slo);
        EXPECT_EQ(r.tenants[i].antagonist, cfg.tenants[i].antagonist);
        EXPECT_EQ(r.tenants[i].cores.size(), cfg.tenants[i].cores);
    }
}

TEST(RunReport, SidecarIsTheVersionedReport)
{
    harness::ExperimentConfig cfg;
    cfg.applyPolicy(idio::Policy::Idio);
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(20 * sim::oneUs);

    const std::string path = ::testing::TempDir() + "report.totals.json";
    harness::writeReportSidecar(
        path, harness::captureReport(sys, sys.simulation().now()));
    const std::string text = slurp(path);
    EXPECT_EQ(text.rfind("{\"schemaVersion\":" +
                             std::to_string(harness::reportSchemaVersion) +
                             ",\"rxPackets\":",
                         0),
              0u)
        << text;
    EXPECT_NE(text.find("\"execTimeUs\":20,"), std::string::npos);
    EXPECT_NE(text.find("\"tenants\":[]}\n"), std::string::npos) << text;
}

TEST(RunReport, FileHoldsOneLabelledRunPerRow)
{
    harness::ExperimentConfig ddio;
    harness::ExperimentConfig idio;
    idio.applyPolicy(idio::Policy::Idio);
    idio.rateGbps = 25.0;
    const harness::RunReport a;
    harness::RunReport b;
    b.totals.rxPackets = 7;

    const std::string path = ::testing::TempDir() + "report.json";
    harness::writeReportFile(path, "unit",
                             {{"first", ddio, a}, {"second", idio, b}});
    const std::string text = slurp(path);
    EXPECT_EQ(text.rfind("{\"bench\":\"unit\",\"schemaVersion\":" +
                             std::to_string(harness::reportSchemaVersion) +
                             ",\"runs\":[{\"label\":\"first\","
                             "\"policy\":\"DDIO\",\"partition\":\"shared\","
                             "\"rateGbps\":100,\"seed\":1,\"rxPackets\":0,",
                         0),
              0u)
        << text;
    EXPECT_NE(text.find("{\"label\":\"second\",\"policy\":\"IDIO\","
                        "\"partition\":\"shared\",\"rateGbps\":25,"
                        "\"seed\":1,\"rxPackets\":7,"),
              std::string::npos)
        << text;
    EXPECT_EQ(occurrences(text, "\"label\":"), 2u);
    EXPECT_EQ(text.back(), '\n');
}

TEST(RunReportDeath, UnwritableFileIsFatal)
{
    EXPECT_EXIT(harness::writeReportSidecar(
                    "/nonexistent-dir/report.totals.json", {}),
                ::testing::ExitedWithCode(1), "cannot write report file");
}

} // anonymous namespace
