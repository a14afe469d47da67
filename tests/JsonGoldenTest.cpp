//===- tests/JsonGoldenTest.cpp - Byte goldens for every JSON renderer ----===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact bytes of every JSON document the library renders:
/// stats::toJson, stats::metricsToJson, passRecordsToJson,
/// diagnosticsToJson, analysisCacheStatsToJson, remarksToJson,
/// resultToJson (remarks captured and not, with an embedded trace), the
/// per-job and merged Chrome traces, and json::Value::dump of protocol
/// messages. Inputs are built by hand so no timing enters the bytes;
/// strings carry every escape class (quote, backslash, \n, \t, \r, other
/// control bytes, bytes >= 0x80) and containers are rendered both empty
/// and non-empty. One golden file per document in tests/golden/json/.
///
/// Regenerate after an intentional change to a document with:
///   SRP_UPDATE_GOLDEN=1 ./srp_tests --gtest_filter='JsonGolden*'
/// which rewrites the files and fails the run so the diff gets reviewed.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/Diagnostics.h"
#include "pipeline/Job.h"
#include "pipeline/PassManager.h"
#include "server/Protocol.h"
#include "support/JSON.h"
#include "support/Remarks.h"
#include "support/Statistics.h"
#include "support/Trace.h"
#include <gtest/gtest.h>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace srp;

namespace {

/// Every escape class the writers must handle, in one string.
const std::string Nasty = "q\"b\\s\nn\tt\rr\x01 u\x1f h\xc3\xa9\xff";

std::string readText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compares \p Got with tests/golden/json/<Name>.json byte for byte, or
/// rewrites the file under SRP_UPDATE_GOLDEN.
void checkGolden(const std::string &Name, const std::string &Got) {
  const std::string Path = std::string(SRP_GOLDEN_DIR) + "/json/" + Name +
                           ".json";
  const char *Update = std::getenv("SRP_UPDATE_GOLDEN");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream(Path, std::ios::binary) << Got;
    ADD_FAILURE() << "rewrote " << Path << "; review the diff and re-run";
    return;
  }
  std::string Want = readText(Path);
  ASSERT_FALSE(Want.empty()) << "missing golden " << Path;
  EXPECT_EQ(Want, Got) << "golden " << Path;
}

/// Sets SRP_TRACE_DETERMINISTIC=1 for a scope, restoring the old value.
class DeterministicTrace {
  std::string Old;
  bool Had;

public:
  DeterministicTrace() {
    const char *E = std::getenv("SRP_TRACE_DETERMINISTIC");
    Had = E != nullptr;
    if (Had)
      Old = E;
    setenv("SRP_TRACE_DETERMINISTIC", "1", 1);
  }
  ~DeterministicTrace() {
    if (Had)
      setenv("SRP_TRACE_DETERMINISTIC", Old.c_str(), 1);
    else
      unsetenv("SRP_TRACE_DETERMINISTIC");
  }
};

std::vector<Remark> sampleRemarks() {
  std::vector<Remark> Rs;
  Rs.push_back(Remark(RemarkKind::Passed, "promotion", "PromotedWeb")
                   .inFunction("main")
                   .inInterval("loop" + Nasty, 2)
                   .onWeb("g#" + Nasty)
                   .arg("load-benefit", int64_t(-42))
                   .arg("store-elim", true)
                   .arg("aliased", false)
                   .arg("why", Nasty)
                   .arg(Nasty, uint64_t(7)));
  Rs.push_back(Remark(RemarkKind::Missed, "promotion", "UnprofitableWeb")
                   .inFunction(Nasty)
                   .arg("threshold", 0u));
  Rs.push_back(Remark(RemarkKind::Analysis, Nasty, "NoOptionalFields"));
  return Rs;
}

std::vector<Diagnostic> sampleDiagnostics() {
  Diagnostic A;
  A.CheckID = "ssa.dominance";
  A.Severity = DiagSeverity::Error;
  A.Loc.Function = "main";
  A.Loc.Block = "entry" + Nasty;
  A.Loc.InstIndex = 3;
  A.Loc.Snippet = "%x = load @g";
  A.Message = Nasty;
  A.FixIt = "move the def";
  Diagnostic B;
  B.CheckID = Nasty;
  B.Severity = DiagSeverity::Warning;
  B.Message = "module-scope";
  return {A, B};
}

AnalysisCacheStats sampleAnalysisStats() {
  AnalysisCacheStats S;
  S.Hits = 123;
  S.Misses = 45;
  S.Invalidations = 6;
  S.CFGEditEvents = 7;
  S.SSAEditEvents = 8;
  for (unsigned I = 0; I != NumAnalysisKinds; ++I)
    S.Builds[I] = 10 + I;
  return S;
}

std::vector<PassRecord> samplePasses() {
  std::vector<PassRecord> Ps(3);
  Ps[0].Name = "mem2reg";
  Ps[0].WallSeconds = 0.0123456789;
  Ps[0].Ran = true;
  Ps[0].Verified = true;
  Ps[1].Name = Nasty;
  Ps[1].WallSeconds = 1.5;
  Ps[1].Ran = true;
  Ps[1].VerifyErrors = 2;
  Ps[2].Name = "skipped";
  return Ps;
}

MetricsSnapshot sampleMetrics() {
  MetricsSnapshot M;
  M.Counters["a.b"] = 1;
  M.Counters["z" + Nasty] = 18446744073709551615ull;
  M.Gauges["server.queue-depth"] = -3;
  M.Gauges["g" + Nasty] = 9;
  HistogramSnapshot H;
  H.Count = 5;
  H.Sum = 1234;
  for (unsigned I = 0; I != HistogramSnapshot::NumBuckets; ++I)
    H.Buckets[I] = I % 3;
  M.Histograms["pipeline.job-micros"] = H;
  M.Histograms["h" + Nasty] = HistogramSnapshot();
  return M;
}

/// A hand-filled PipelineResult: every reported field distinct and
/// non-zero, doubles chosen to exercise the %g format.
PipelineResult sampleResult() {
  PipelineResult R;
  R.Ok = true;
  R.Errors = {"first " + Nasty, "second"};
  R.StaticBefore = {11, 12, 1};
  R.StaticAfter = {3, 4, 1};
  R.RunBefore.Counts.SingletonLoads = 1000;
  R.RunBefore.Counts.SingletonStores = 500;
  R.RunAfter.Counts.SingletonLoads = 100;
  R.RunAfter.Counts.SingletonStores = 50;
  R.RunAfter.ExitValue = -7;
  R.RunAfter.Output = {1, -2, 9223372036854775807ll};
  R.RunAfter.FinalMemory[0] = {1, 2, 3};
  R.RunAfter.FinalMemory[4] = {-5};
  R.RunBefore.Interp.FunctionsDecoded = 2;
  R.RunAfter.Interp.FunctionsDecoded = 1;
  R.RunBefore.Interp.DecodeCacheHits = 3;
  R.RunAfter.Interp.DecodeCacheHits = 4;
  R.RunAfter.Interp.WalkFallbackCalls = 5;
  R.RunAfter.Interp.FunctionsCompiled = 6;
  R.RunAfter.Interp.NativeCalls = 7;
  R.RunAfter.Interp.Deopts = 8;
  R.RunBefore.Interp.DecodeSeconds = 0.000125;
  R.RunAfter.Interp.DecodeSeconds = 0.25;
  R.RunAfter.Interp.CompileSeconds = 1e-7;
  R.RunBefore.Interp.ExecSeconds = 123456789.0;
  R.RunAfter.Interp.ExecSeconds = 0.1;
  R.Passes = samplePasses();
  R.Analysis = sampleAnalysisStats();
  R.Verify.PassesVerified = 9;
  R.Verify.ChecksRun = 90;
  R.Verify.Diagnostics = 1;
  R.Verify.WallSeconds = 0.5;
  R.Verify.Validation.PassesValidated = 1;
  R.Verify.Validation.FunctionsValidated = 2;
  R.Verify.Validation.FunctionsSkippedIdentical = 3;
  R.Verify.Validation.EffectPairsMatched = 4;
  R.Verify.Validation.ObligationsProven = 5;
  R.Verify.Validation.ObligationsFailed = 6;
  R.Verify.Validation.WebsChecked = 7;
  R.Verify.Validation.WebsProven = 8;
  R.Verify.Validation.WallSeconds = 2.0 / 3.0;
  R.Pressure.NumValues = 40;
  R.Pressure.Edges = 41;
  R.Pressure.ColorsNeeded = 5;
  R.Pressure.MaxLive = 6;
  R.WallSeconds = 3.25;
  return R;
}

CompileJob sampleJob() {
  CompileJob Job;
  Job.Name = "dir/" + Nasty + ".mc";
  Job.Opts.Mode = PromotionMode::Paper;
  Job.Opts.EntryFunction = "main";
  return Job;
}

/// A per-job trace of every event phase, rendered deterministically.
std::string sampleLocalTrace() {
  DeterministicTrace Det;
  trace::LocalCapture Capture;
  {
    TraceSpan Outer("pass", "mem2reg");
    TraceSpan Inner;
    Inner.begin("interp", "decode:" + Nasty);
    trace::instant("job", "mark " + Nasty);
  }
  trace::counter("job", "jobs-completed", "jobs", -12);
  return Capture.toChromeJson();
}

} // namespace

TEST(JsonGoldenTest, Statistics) {
  checkGolden("stats_empty", stats::toJson(StatsSnapshot()));
  StatsSnapshot S;
  S["promotion.webs"] = 12;
  S["mem2reg." + Nasty] = 0;
  checkGolden("stats", stats::toJson(S));
}

TEST(JsonGoldenTest, Metrics) {
  checkGolden("metrics_empty", stats::metricsToJson(MetricsSnapshot()));
  checkGolden("metrics", stats::metricsToJson(sampleMetrics()));
}

TEST(JsonGoldenTest, PassRecords) {
  checkGolden("passes_empty", passRecordsToJson({}));
  checkGolden("passes", passRecordsToJson(samplePasses()));
}

TEST(JsonGoldenTest, Diagnostics) {
  checkGolden("diagnostics_empty", diagnosticsToJson({}));
  checkGolden("diagnostics", diagnosticsToJson(sampleDiagnostics()));
}

TEST(JsonGoldenTest, AnalysisCacheStats) {
  checkGolden("analysis_empty", analysisCacheStatsToJson({}));
  checkGolden("analysis", analysisCacheStatsToJson(sampleAnalysisStats()));
}

TEST(JsonGoldenTest, Remarks) {
  checkGolden("remarks_empty", remarksToJson({}));
  checkGolden("remarks", remarksToJson(sampleRemarks()));
}

TEST(JsonGoldenTest, LocalTrace) {
  {
    DeterministicTrace Det;
    trace::LocalCapture Empty;
    checkGolden("trace_local_empty", Empty.toChromeJson());
  }
  checkGolden("trace_local", sampleLocalTrace());
}

TEST(JsonGoldenTest, MergedTrace) {
  DeterministicTrace Det;
  trace::start();
  trace::instant("job", "main-thread " + Nasty);
  std::thread Worker([] {
    trace::setThreadName("worker-" + Nasty);
    trace::instant("job", "worker-start");
    TraceSpan Span("pass", "cleanup");
  });
  Worker.join();
  trace::stop();
  std::string Doc = trace::toChromeJson();
  trace::reset();
  checkGolden("trace_merged", Doc);

  trace::start();
  trace::stop();
  checkGolden("trace_merged_empty", trace::toChromeJson());
  trace::reset();
}

TEST(JsonGoldenTest, ResultReport) {
  stats::resetForTesting();
  CompileJob Job = sampleJob();

  PipelineResult Plain = sampleResult();
  checkGolden("report_plain", resultToJson(Plain, Job));

  PipelineResult Captured = sampleResult();
  Captured.Remarks = sampleRemarks();
  Captured.RemarksCaptured = true;
  Captured.TraceJson = sampleLocalTrace();
  checkGolden("report_remarks_trace", resultToJson(Captured, Job));

  PipelineResult EmptyCapture;
  EmptyCapture.RemarksCaptured = true;
  CompileJob Bare;
  Bare.Opts.VerifyEachStep = true;
  Bare.Opts.VerifyStrictness = Strictness::Full;
  checkGolden("report_empty", resultToJson(EmptyCapture, Bare));
}

TEST(JsonGoldenTest, ProtocolMessages) {
  JobCache::Entry E;
  E.Ok = true;
  E.ExitValue = -1;
  E.Output = {3, -4};
  E.FinalMemoryHash = 0xfedcba9876543210ull;
  E.Errors = {Nasty};
  E.ReportJson = "{\n  \"ok\": true\n}\n";
  E.RemarksJson = remarksToJson(sampleRemarks());
  E.TraceJson = sampleLocalTrace();
  checkGolden("protocol_response", server::encodeCompileResponse(42, E, true));
  checkGolden("protocol_error", server::encodeErrorResponse(7, Nasty));

  CompileJob Job = sampleJob();
  Job.Source = SourceText("int main() { return 0; }\n");
  Job.WantRemarks = true;
  Job.RemarksFilter = "promotion";
  checkGolden("protocol_request", server::encodeCompileRequest(Job, 9));

  json::Value V = json::Value::object();
  V.set("null", json::Value::null());
  V.set("t", json::Value::boolean(true));
  V.set("f", json::Value::boolean(false));
  V.set("min", json::Value::integer(INT64_MIN));
  V.set("tenth", json::Value::number(0.1));
  V.set("big", json::Value::number(1e300));
  V.set("neg", json::Value::number(-2.5));
  V.set(Nasty, json::Value::string(Nasty));
  V.set("empty_array", json::Value::array());
  V.set("empty_object", json::Value::object());
  json::Value A = json::Value::array();
  A.push(json::Value::integer(1));
  A.push(json::Value::array());
  json::Value Inner = json::Value::object();
  Inner.set("k", json::Value::string(""));
  A.push(std::move(Inner));
  V.set("array", std::move(A));
  checkGolden("value_dump", V.dump());
  checkGolden("value_scalar", json::Value::number(3.0).dump());
}
