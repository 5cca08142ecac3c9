/**
 * @file
 * Observability layer: JSON round-trips, metric semantics under the
 * thread pool, trace-session validity, run-report structure, and the
 * off-by-default contract (nothing collected or emitted when the
 * SMITE_METRICS / SMITE_TRACE environment variables are unset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/env.h"
#include "obs/obs.h"

namespace obs = smite::obs;
namespace json = smite::obs::json;

namespace {

/** Fresh global state for every test in the suite. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::Registry::global().resetForTesting();
        obs::TraceSession::global().clearForTesting();
        obs::TraceSession::global().setEnabledForTesting(false);
        obs::setMetricsEnabledForTesting(false);
    }

    void TearDown() override { SetUp(); }
};

} // namespace

TEST_F(ObsTest, JsonDumpParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("bool", json::Value(true));
    doc.set("int", json::Value(42));
    doc.set("float", json::Value(2.5));
    doc.set("string", json::Value("a \"quoted\"\nline\t\\"));
    doc.set("null", json::Value());
    json::Value arr = json::Value::array();
    arr.push(json::Value(1));
    arr.push(json::Value("two"));
    json::Value nested = json::Value::object();
    nested.set("k", json::Value(-0.125));
    arr.push(std::move(nested));
    doc.set("arr", std::move(arr));

    for (const int indent : {-1, 0, 2}) {
        json::Value parsed;
        std::string error;
        ASSERT_TRUE(
            json::Value::parse(doc.dump(indent), &parsed, &error))
            << error;
        EXPECT_EQ(parsed.dump(), doc.dump());
    }

    // Insertion order is preserved so documents diff cleanly.
    EXPECT_EQ(doc.fields()[0].first, "bool");
    EXPECT_EQ(doc.fields()[5].first, "arr");
    EXPECT_EQ(doc.find("string")->asString(), "a \"quoted\"\nline\t\\");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST_F(ObsTest, JsonParseRejectsMalformedDocuments)
{
    json::Value out;
    EXPECT_FALSE(json::Value::parse("", &out));
    EXPECT_FALSE(json::Value::parse("{", &out));
    EXPECT_FALSE(json::Value::parse("{} trailing", &out));
    EXPECT_FALSE(json::Value::parse("{\"a\":}", &out));
    EXPECT_FALSE(json::Value::parse("[1,]", &out));
    EXPECT_FALSE(json::Value::parse("\"bad \\q escape\"", &out));
    EXPECT_FALSE(json::Value::parse("nul", &out));

    std::string error;
    EXPECT_FALSE(json::Value::parse("[1, 2", &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST_F(ObsTest, CounterIsExactUnderParallelFor)
{
    obs::Counter &hits =
        obs::Registry::global().counter("test.pool.hits");
    constexpr std::size_t kIterations = 10'000;
    smite::core::parallelFor(
        kIterations, [&](std::size_t i) { hits.add(i % 3 + 1); }, 4);

    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kIterations; ++i)
        expected += i % 3 + 1;
    EXPECT_EQ(hits.value(), expected);

    hits.reset();
    EXPECT_EQ(hits.value(), 0u);
}

TEST_F(ObsTest, HistogramSummarizesConcurrentSamples)
{
    obs::Histogram &h =
        obs::Registry::global().histogram("test.pool.samples");
    constexpr std::size_t kIterations = 4'096;
    smite::core::parallelFor(
        kIterations,
        [&](std::size_t i) { h.observe(static_cast<double>(i + 1)); },
        4);

    EXPECT_EQ(h.count(), kIterations);
    EXPECT_DOUBLE_EQ(h.sum(),
                     kIterations * (kIterations + 1) / 2.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kIterations));
    EXPECT_NEAR(h.mean(), (kIterations + 1) / 2.0, 1e-9);

    // Quantiles are bucket-resolution approximations: monotone in p
    // and clamped to the observed range.
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, h.max());
    EXPECT_GT(p50, kIterations / 4.0);

    const json::Value summary = h.summaryJson();
    for (const char *field :
         {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}) {
        ASSERT_NE(summary.find(field), nullptr) << field;
        EXPECT_TRUE(summary.find(field)->isNumber()) << field;
    }
}

TEST_F(ObsTest, RegistryReturnsStableReferences)
{
    obs::Registry &registry = obs::Registry::global();
    obs::Counter &a = registry.counter("test.registry.counter");
    obs::Counter &b = registry.counter("test.registry.counter");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(&registry.gauge("test.registry.gauge"),
              &registry.gauge("test.registry.gauge"));
    EXPECT_EQ(&registry.histogram("test.registry.hist"),
              &registry.histogram("test.registry.hist"));

    a.add(7);
    registry.gauge("test.registry.gauge").set(0.5);
    registry.histogram("test.registry.hist").observe(3.0);

    const std::vector<std::string> names = registry.names();
    const std::set<std::string> name_set(names.begin(), names.end());
    EXPECT_TRUE(name_set.count("test.registry.counter"));
    EXPECT_TRUE(name_set.count("test.registry.gauge"));
    EXPECT_TRUE(name_set.count("test.registry.hist"));
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

    // resetForTesting zeroes values but keeps references valid.
    registry.resetForTesting();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(registry.gauge("test.registry.gauge").value(), 0.0);
    a.add(1);
    EXPECT_EQ(registry.counter("test.registry.counter").value(), 1u);
}

TEST_F(ObsTest, SpansRecordValidChromeTraceJson)
{
    obs::TraceSession &session = obs::TraceSession::global();
    session.setEnabledForTesting(true);
    {
        obs::Span outer("test.outer", "detail text");
        obs::Span inner("test.inner");
    }
    ASSERT_EQ(session.eventCount(), 2u);
    const std::vector<std::string> names = session.spanNames();
    EXPECT_EQ(names,
              (std::vector<std::string>{"test.inner", "test.outer"}));

    // The serialized document must survive a strict re-parse and
    // carry the Chrome trace_event shape.
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(
        json::Value::parse(session.toJson().dump(2), &parsed, &error))
        << error;
    const json::Value *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->items().size(), 2u);
    for (const json::Value &e : events->items()) {
        EXPECT_EQ(e.find("ph")->asString(), "X");
        EXPECT_EQ(e.find("cat")->asString(), "smite");
        EXPECT_TRUE(e.find("ts")->isNumber());
        EXPECT_TRUE(e.find("dur")->isNumber());
        EXPECT_TRUE(e.find("tid")->isNumber());
    }
    // Spans record at destruction, so the inner span lands in the
    // buffer first; look the outer one up by name for its detail.
    const json::Value *outer = nullptr;
    for (const json::Value &e : events->items()) {
        if (e.find("name")->asString() == "test.outer")
            outer = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(outer->find("args"), nullptr);
    EXPECT_EQ(outer->find("args")->find("detail")->asString(),
              "detail text");
}

TEST_F(ObsTest, DisabledTracingCollectsNothing)
{
    obs::TraceSession &session = obs::TraceSession::global();
    ASSERT_FALSE(session.enabled());
    {
        obs::Span span("test.invisible", "never recorded");
    }
    EXPECT_EQ(session.eventCount(), 0u);
    EXPECT_TRUE(session.spanNames().empty());
}

TEST_F(ObsTest, SpanEnabledAtEntryGovernsRecording)
{
    obs::TraceSession &session = obs::TraceSession::global();
    // A span that starts while tracing is disabled stays a no-op even
    // if tracing turns on before it closes.
    {
        obs::Span span("test.late");
        session.setEnabledForTesting(true);
    }
    EXPECT_EQ(session.eventCount(), 0u);
}

TEST_F(ObsTest, RunReportRoundTripsThroughParser)
{
    obs::setMetricsEnabledForTesting(true);
    obs::Registry::global().counter("test.report.counter").add(11);
    obs::Registry::global().gauge("test.report.gauge").set(0.75);
    obs::Registry::global().histogram("test.report.hist").observe(2.0);

    obs::RunReport report("test_report_run");
    report.setConfig("threads", json::Value(4));
    report.setConfig("machine", json::Value("Ivy Bridge"));
    report.addTiming("total_s", 1.5);
    report.addResult("avg_error", json::Value(0.028));

    json::Value parsed;
    std::string error;
    ASSERT_TRUE(
        json::Value::parse(report.toJson().dump(2), &parsed, &error))
        << error;

    EXPECT_EQ(parsed.find("schema")->asString(),
              obs::kRunReportSchema);
    EXPECT_EQ(parsed.find("name")->asString(), "test_report_run");
    EXPECT_EQ(parsed.find("config")->find("threads")->asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(
        parsed.find("timings")->find("total_s")->asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(
        parsed.find("results")->find("avg_error")->asNumber(), 0.028);

    const json::Value *metrics = parsed.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("counters")
                  ->find("test.report.counter")
                  ->asNumber(),
              11.0);
    EXPECT_DOUBLE_EQ(
        metrics->find("gauges")->find("test.report.gauge")->asNumber(),
        0.75);
    const json::Value *hist =
        metrics->find("histograms")->find("test.report.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->asNumber(), 1.0);
}

TEST_F(ObsTest, ReportAndTraceFilesWriteAndParse)
{
    obs::TraceSession &session = obs::TraceSession::global();
    session.setEnabledForTesting(true);
    {
        obs::Span span("test.file", "round-trip");
    }
    obs::RunReport report("test_file_run");
    report.addTiming("total_s", 0.25);

    const std::string trace_path =
        ::testing::TempDir() + "/obs_test.trace.json";
    const std::string report_path =
        ::testing::TempDir() + "/obs_test.report.json";
    ASSERT_TRUE(session.writeTo(trace_path));
    ASSERT_TRUE(report.writeTo(report_path));

    for (const std::string &path : {trace_path, report_path}) {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr) << path;
        std::string text;
        char buffer[4096];
        std::size_t n = 0;
        while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
            text.append(buffer, n);
        std::fclose(f);
        std::remove(path.c_str());

        json::Value parsed;
        std::string error;
        EXPECT_TRUE(json::Value::parse(text, &parsed, &error))
            << path << ": " << error;
    }
}

TEST_F(ObsTest, MetricsEnabledHonoursTestOverride)
{
    EXPECT_FALSE(obs::metricsEnabled());
    obs::setMetricsEnabledForTesting(true);
    EXPECT_TRUE(obs::metricsEnabled());
    obs::setMetricsEnabledForTesting(false);
    EXPECT_FALSE(obs::metricsEnabled());
}

/** Every SMITE_* knob goes through these two parsers. */
TEST_F(ObsTest, EnvKnobsParseOneWay)
{
    const char *name = "SMITE_TEST_ENV_KNOB";
    unsetenv(name);
    EXPECT_TRUE(obs::envFlag(name, true));
    EXPECT_FALSE(obs::envFlag(name, false));
    EXPECT_EQ(obs::envPositive(name, 7), 7);

    const auto flag = [&](const char *value, bool fallback) {
        setenv(name, value, 1);
        return obs::envFlag(name, fallback);
    };
    EXPECT_TRUE(flag("", true));
    EXPECT_FALSE(flag("", false));
    EXPECT_FALSE(flag("0", true));
    EXPECT_TRUE(flag("1", false));
    EXPECT_TRUE(flag("00", false));

    const auto count = [&](const char *value) {
        setenv(name, value, 1);
        return obs::envPositive(name, 7);
    };
    EXPECT_EQ(count("12"), 12);
    // Invalid values fall back (with a stderr warning); an int knob
    // also rejects what does not fit an int.
    for (const char *bad : {"", "0", "-3", "12x", "abc", "99999999999"})
        EXPECT_EQ(count(bad), 7) << "'" << bad << "'";
    EXPECT_EQ(obs::envPositive<std::uint64_t>(name, 7), 99999999999u);
    unsetenv(name);
}

namespace {

/** Parse a JSON literal that is known to be valid. */
json::Value
mustParse(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::Value::parse(text, &v, &error)) << error;
    return v;
}

} // namespace

TEST_F(ObsTest, DiffReportsEquivalentDocumentsIsEmpty)
{
    const json::Value a = mustParse(
        R"({"name":"fig10","results":{"rmse":0.031,"pairs":[1,2,3]},)"
        R"("timings":{"wall_s":12.0}})");
    const json::Value b = mustParse(
        R"({"name":"fig10","results":{"rmse":0.031,"pairs":[1,2,3]},)"
        R"("timings":{"wall_s":99.0}})");
    // Identical results; timings differ but are never compared.
    EXPECT_TRUE(obs::diffReports(a, b).empty());
}

TEST_F(ObsTest, DiffReportsFlagsNumericDriftBeyondTolerance)
{
    const json::Value a =
        mustParse(R"({"name":"x","results":{"rmse":0.031}})");
    const json::Value b =
        mustParse(R"({"name":"x","results":{"rmse":0.032}})");
    const auto diffs = obs::diffReports(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].path, "results.rmse");

    // A baseline whose gate is loose accepts the same drift.
    const json::Value loose = mustParse(
        R"({"name":"x","gate":{"results.*":0.1},"results":{"rmse":0.031}})");
    const json::Value fresh = mustParse(
        R"({"name":"x","gate":{"results.*":0.1},"results":{"rmse":0.032}})");
    EXPECT_TRUE(obs::diffReports(loose, fresh).empty());
}

TEST_F(ObsTest, DiffReportsFlagsMissingKeysAndTypeChanges)
{
    const json::Value a = mustParse(
        R"({"name":"x","results":{"rmse":0.03,"extra":1}})");
    const json::Value b = mustParse(
        R"({"name":"x","results":{"rmse":"0.03"}})");
    const auto diffs = obs::diffReports(a, b);
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0].path, "results.rmse");
    EXPECT_EQ(diffs[0].detail, "number vs string");
    EXPECT_EQ(diffs[1].path, "results.extra");
    EXPECT_EQ(diffs[1].detail, "present vs missing");
}

TEST_F(ObsTest, DiffReportsFlagsPartialVersusComplete)
{
    const json::Value a = mustParse(
        R"({"name":"x","results":{},"partial":true,)"
        R"("incidents":["solo 429.mcf failed"]})");
    const json::Value b = mustParse(R"({"name":"x","results":{}})");
    const auto diffs = obs::diffReports(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].path, "partial");
    EXPECT_EQ(diffs[0].detail, "partial vs complete");
    EXPECT_TRUE(obs::diffReports(a, a).empty());
}

TEST_F(ObsTest, GateFirstMatchingPatternWins)
{
    const auto doc = [](const char *gate, const char *rate) {
        return mustParse(std::string(R"({"name":"x","gate":)") + gate +
                         R"(,"results":{"fast_rate":)" + rate +
                         R"(,"digest":5}})");
    };
    const char *fast_first = R"({"results.fast_*":0.6,"results.*":0})";
    const char *exact_first = R"({"results.*":0,"results.fast_*":0.6})";

    EXPECT_TRUE(obs::diffReports(doc(fast_first, "100"),
                                 doc(fast_first, "50"))
                    .empty());
    const auto slow = obs::diffReports(doc(fast_first, "100"),
                                       doc(fast_first, "30"));
    ASSERT_EQ(slow.size(), 1u);
    EXPECT_EQ(slow[0].path, "results.fast_rate");

    // The same rules in the other order: `results.*` matches first.
    const auto exact = obs::diffReports(doc(exact_first, "100"),
                                        doc(exact_first, "50"));
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0].path, "results.fast_rate");
}

TEST_F(ObsTest, GateFailsOneSidedKeysOnlyUnderToleranceRule)
{
    const char *gate = R"("gate":{"metrics.counters.pool.*":"ignore",)"
                       R"("metrics.counters.*":0})";
    const auto doc = [&](const char *counters) {
        return mustParse(std::string(R"({"name":"x",)") + gate +
                         R"(,"metrics":{"counters":)" + counters + "}}");
    };
    const json::Value pooled =
        doc(R"({"pool.batches":3,"pool.tasks":40,"lab.trials":5})");
    EXPECT_TRUE(obs::diffReports(pooled, doc(R"({"lab.trials":5})")).empty());
    EXPECT_TRUE(obs::diffReports(doc(R"({"lab.trials":5})"), pooled).empty());

    const auto lost =
        obs::diffReports(pooled, doc(R"({"pool.batches":3})"));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].path, "metrics.counters.lab.trials");
    EXPECT_EQ(lost[0].detail, "present vs missing");

    const auto added = obs::diffReports(
        doc(R"({"lab.trials":5})"),
        doc(R"({"lab.trials":5,"machine.replay.bypassed":1})"));
    ASSERT_EQ(added.size(), 1u);
    EXPECT_EQ(added[0].path, "metrics.counters.machine.replay.bypassed");
    EXPECT_EQ(added[0].detail, "missing vs present");
}

TEST_F(ObsTest, GateLeavesUnmatchedPathsUncompared)
{
    const json::Value a = mustParse(
        R"({"name":"x","gate":{"results.*":0},"config":{"threads":4},)"
        R"("timings":{"total_s":1},"results":{"a":1},)"
        R"("metrics":{"counters":{"lab.trials":5}}})");
    const json::Value b = mustParse(
        R"({"name":"x","gate":{"results.*":0},"config":{"threads":1},)"
        R"("results":{"a":1},"metrics":{"counters":{"lab.trials":7,)"
        R"("pool.batches":2},"gauges":{}}})");
    EXPECT_TRUE(obs::diffReports(a, b).empty());
}

TEST_F(ObsTest, GateNamePartialAndGateAlwaysCompareExactly)
{
    const json::Value a = mustParse(
        R"({"name":"x","gate":{"*":"ignore"},"results":{"a":1}})");
    const json::Value b = mustParse(
        R"({"name":"y","gate":{"*":"ignore"},"results":{"a":2},)"
        R"("partial":true,"incidents":["lost"]})");
    const auto diffs = obs::diffReports(a, b);
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0].path, "name");
    EXPECT_EQ(diffs[1].path, "partial");

    // A harness whose gate drifted from the baseline's fails, and so
    // does one that stopped declaring it or only reordered its rules.
    const auto gate_diff = [](const char *baseline, const char *fresh) {
        const auto doc = [](const char *gate) {
            return mustParse(std::string(R"({"name":"x",)") + gate +
                             R"("results":{"a":1}})");
        };
        return obs::diffReports(doc(baseline), doc(fresh));
    };
    const char *sched = R"("gate":{"results.*_per_sec":0.6,"results.*":0},)";
    const char *reordered =
        R"("gate":{"results.*":0,"results.*_per_sec":0.6},)";
    const char *drifted = R"("gate":{"results.*_per_sec":0.5,"results.*":0},)";
    EXPECT_TRUE(gate_diff(sched, sched).empty());
    for (const char *fresh : {reordered, drifted, ""}) {
        const auto gate_diffs = gate_diff(sched, fresh);
        ASSERT_EQ(gate_diffs.size(), 1u) << fresh;
        EXPECT_EQ(gate_diffs[0].path, "gate");
    }
    EXPECT_EQ(gate_diff(sched, "")[0].detail,
              R"({"results.*_per_sec":0.59999999999999998,"results.*":0})"
              " vs no gate");
}

TEST_F(ObsTest, GateMalformedIsRejected)
{
    const json::Value b = mustParse(R"({"name":"x","results":{"a":1}})");
    for (const char *gate :
         {R"([])", R"("exact")", R"({"results.*":-1})",
          R"({"results.*":1e999})", R"({"results.*":-1e999})",
          R"({"results.*":"exact"})", R"({"results.*":true})",
          R"({"results.*":null})", R"({"results.*":{}})"}) {
        const json::Value a = mustParse(
            std::string(R"({"name":"x","gate":)") + gate +
            R"(,"results":{"a":1}})");
        EXPECT_THROW(obs::diffReports(a, b), std::invalid_argument)
            << gate;
    }
}

TEST_F(ObsTest, RunReportEmitsDeclaredGateAfterName)
{
    obs::RunReport plain("plain");
    EXPECT_EQ(plain.toJson().find("gate"), nullptr);

    obs::RunReport report("gated");
    report.addGate("results.*_per_sec", json::Value(0.6));
    report.addGate("results.*", json::Value(0));
    report.addResult("a_per_sec", json::Value(100.0));
    const json::Value doc = report.toJson();
    ASSERT_GE(doc.fields().size(), 3u);
    EXPECT_EQ(doc.fields()[2].first, "gate");
    const auto &rules = doc.find("gate")->fields();
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].first, "results.*_per_sec");
    EXPECT_EQ(rules[0].second.asNumber(), 0.6);
    EXPECT_EQ(rules[1].first, "results.*");
    EXPECT_EQ(rules[1].second.asNumber(), 0.0);
    EXPECT_TRUE(obs::diffReports(doc, doc).empty());
}

TEST_F(ObsTest, PartialReportEmitsIncidents)
{
    obs::RunReport report("chaos");
    report.addResult("rmse", json::Value(0.5));
    report.markPartial({"solo 429.mcf#1 failed after 3 attempts"});
    EXPECT_TRUE(report.partial());
    const json::Value doc = report.toJson();
    ASSERT_NE(doc.find("partial"), nullptr);
    EXPECT_TRUE(doc.find("partial")->asBool());
    ASSERT_NE(doc.find("incidents"), nullptr);
    ASSERT_EQ(doc.find("incidents")->items().size(), 1u);

    // A clean report carries neither field.
    obs::RunReport clean("ok");
    const json::Value clean_doc = clean.toJson();
    EXPECT_EQ(clean_doc.find("partial"), nullptr);
    EXPECT_EQ(clean_doc.find("incidents"), nullptr);
}

TEST_F(ObsTest, IncidentLogCapsStoredEntries)
{
    obs::IncidentLog &log = obs::IncidentLog::global();
    log.clearForTesting();
    for (int i = 0; i < 300; ++i)
        log.record("incident " + std::to_string(i));
    EXPECT_EQ(log.count(), 300u);
    const std::vector<std::string> snap = log.snapshot();
    // kMaxEntries stored lines plus one "... and N more" summary.
    ASSERT_EQ(snap.size(),
              static_cast<std::size_t>(obs::IncidentLog::kMaxEntries) + 1);
    EXPECT_NE(snap.back().find("44 more"), std::string::npos);
    log.clearForTesting();
    EXPECT_EQ(log.count(), 0u);
    EXPECT_TRUE(log.snapshot().empty());
}
