//===- server/Protocol.cpp - Compile-server wire protocol -----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "analysis/StaticAnalysis.h"
#include <cstdio>

using namespace srp;
using namespace srp::server;

std::string srp::server::encodeCompileRequest(const CompileJob &Job,
                                              uint64_t Id) {
  const PipelineOptions Defaults;
  json::Writer W(json::Layout::Compact);
  W.beginObject()
      .member("op", "compile")
      .member("id", static_cast<int64_t>(Id));
  if (!Job.Name.empty())
    W.member("name", Job.Name);
  W.member("source", Job.Source.str());
  if (Job.InputIsIR)
    W.member("ir", true);

  const PipelineOptions &O = Job.Opts;
  if (O.Mode != Defaults.Mode)
    W.member("mode", promotionModeName(O.Mode));
  if (O.EntryFunction != Defaults.EntryFunction)
    W.member("entry", O.EntryFunction);
  {
    Strictness S = O.VerifyEachStep ? O.VerifyStrictness : Strictness::Off;
    Strictness DS = Defaults.VerifyEachStep ? Defaults.VerifyStrictness
                                            : Strictness::Off;
    if (S != DS)
      W.member("verify", strictnessName(S));
  }
  if (O.Interp != Defaults.Interp)
    W.member("interp", interpEngineName(O.Interp));
  if (O.JitThreshold != Defaults.JitThreshold)
    W.member("jit_threshold", static_cast<int64_t>(O.JitThreshold));
  if (O.MeasurePressure != Defaults.MeasurePressure)
    W.member("measure_pressure", O.MeasurePressure);
  if (O.DisableAnalysisCache != Defaults.DisableAnalysisCache)
    W.member("no_analysis_cache", O.DisableAnalysisCache);
  if (O.Promo.AllowStoreElimination != Defaults.Promo.AllowStoreElimination)
    W.member("store_elim", O.Promo.AllowStoreElimination);
  if (O.Promo.WebGranularity != Defaults.Promo.WebGranularity)
    W.member("web_granularity", O.Promo.WebGranularity);
  if (O.Promo.CountBoundaryOps != Defaults.Promo.CountBoundaryOps)
    W.member("boundary_cost", O.Promo.CountBoundaryOps);
  if (O.Promo.DirectAliasedStores != Defaults.Promo.DirectAliasedStores)
    W.member("direct_stores", O.Promo.DirectAliasedStores);
  if (O.Promo.ProfitThreshold != Defaults.Promo.ProfitThreshold)
    W.member("profit_threshold", O.Promo.ProfitThreshold);
  if (Job.WantRemarks)
    W.member("want_remarks", true);
  if (!Job.RemarksFilter.empty())
    W.member("remarks_filter", Job.RemarksFilter);
  if (Job.WantTrace)
    W.member("want_trace", true);
  W.end();
  return W.take();
}

bool srp::server::decodeCompileRequest(const json::Value &Req,
                                       CompileJob &Job, uint64_t &Id,
                                       std::string &Err) {
  if (!Req.isObject()) {
    Err = "request is not an object";
    return false;
  }
  Id = static_cast<uint64_t>(Req.get("id").asInt(0));
  const json::Value *Source = Req.find("source");
  if (!Source || !Source->isString()) {
    Err = "missing required string field 'source'";
    return false;
  }
  Job.Source = SourceText(Source->asString());
  Job.Name = Req.get("name").asString("<remote>");
  Job.InputIsIR = Req.get("ir").asBool(false);

  PipelineOptions &O = Job.Opts;
  if (const json::Value *V = Req.find("mode")) {
    if (!parsePromotionMode(V->asString(), O.Mode)) {
      Err = "unknown mode '" + V->asString() + "'";
      return false;
    }
  }
  if (const json::Value *V = Req.find("entry"))
    O.EntryFunction = V->asString();
  if (const json::Value *V = Req.find("verify")) {
    Strictness S;
    if (!parseStrictness(V->asString(), S)) {
      Err = "unknown strictness '" + V->asString() + "'";
      return false;
    }
    O.VerifyStrictness = S;
    O.VerifyEachStep = S != Strictness::Off;
  }
  if (const json::Value *V = Req.find("interp")) {
    if (!parseInterpEngine(V->asString(), O.Interp)) {
      Err = "unknown interpreter engine '" + V->asString() + "'";
      return false;
    }
  }
  if (const json::Value *V = Req.find("jit_threshold"))
    O.JitThreshold = static_cast<uint64_t>(V->asInt(0));
  if (const json::Value *V = Req.find("measure_pressure"))
    O.MeasurePressure = V->asBool(O.MeasurePressure);
  if (const json::Value *V = Req.find("no_analysis_cache"))
    O.DisableAnalysisCache = V->asBool(O.DisableAnalysisCache);
  if (const json::Value *V = Req.find("store_elim"))
    O.Promo.AllowStoreElimination = V->asBool(true);
  if (const json::Value *V = Req.find("web_granularity"))
    O.Promo.WebGranularity = V->asBool(true);
  if (const json::Value *V = Req.find("boundary_cost"))
    O.Promo.CountBoundaryOps = V->asBool(true);
  if (const json::Value *V = Req.find("direct_stores"))
    O.Promo.DirectAliasedStores = V->asBool(false);
  if (const json::Value *V = Req.find("profit_threshold"))
    O.Promo.ProfitThreshold = V->asInt(0);
  if (const json::Value *V = Req.find("want_remarks"))
    Job.WantRemarks = V->asBool(false);
  if (const json::Value *V = Req.find("remarks_filter"))
    Job.RemarksFilter = V->asString();
  if (const json::Value *V = Req.find("want_trace"))
    Job.WantTrace = V->asBool(false);
  return true;
}

std::string srp::server::encodeCompileResponse(uint64_t Id,
                                               const JobCache::Entry &E,
                                               bool CacheHit) {
  char Hash[32];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                static_cast<unsigned long long>(E.FinalMemoryHash));
  json::Writer W(json::Layout::Compact);
  W.beginObject()
      .member("id", static_cast<int64_t>(Id))
      .member("ok", E.Ok)
      .member("cache_hit", CacheHit)
      .member("exit_value", E.ExitValue)
      .key("output")
      .beginArray();
  for (int64_t V : E.Output)
    W.value(V);
  W.end().member("final_memory_hash", Hash).key("errors").beginArray();
  for (const std::string &M : E.Errors)
    W.value(M);
  W.end().member("report", E.ReportJson);
  if (!E.RemarksJson.empty())
    W.member("remarks_json", E.RemarksJson);
  if (!E.TraceJson.empty())
    W.member("trace_json", E.TraceJson);
  W.end();
  return W.take();
}

std::string srp::server::encodeErrorResponse(uint64_t Id,
                                             const std::string &Msg) {
  json::Writer W(json::Layout::Compact);
  W.beginObject()
      .member("id", static_cast<int64_t>(Id))
      .member("ok", false)
      .member("error", Msg)
      .end();
  return W.take();
}

bool srp::server::decodeCompileResponse(const json::Value &Resp,
                                        CompileResponse &Out,
                                        std::string &Err) {
  if (!Resp.isObject()) {
    Err = "response is not an object";
    return false;
  }
  Out.Id = static_cast<uint64_t>(Resp.get("id").asInt(0));
  Out.Ok = Resp.get("ok").asBool(false);
  Out.CacheHit = Resp.get("cache_hit").asBool(false);
  Out.ExitValue = Resp.get("exit_value").asInt(0);
  Out.Output.clear();
  for (const json::Value &V : Resp.get("output").items())
    Out.Output.push_back(V.asInt(0));
  Out.FinalMemoryHash = 0;
  {
    const std::string &Hex = Resp.get("final_memory_hash").asString();
    for (char C : Hex) {
      Out.FinalMemoryHash <<= 4;
      if (C >= '0' && C <= '9')
        Out.FinalMemoryHash |= uint64_t(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out.FinalMemoryHash |= uint64_t(C - 'a' + 10);
    }
  }
  Out.Errors.clear();
  for (const json::Value &V : Resp.get("errors").items())
    Out.Errors.push_back(V.asString());
  if (const json::Value *E = Resp.find("error"))
    if (E->isString() && !E->asString().empty())
      Out.Errors.push_back(E->asString());
  Out.ReportJson = Resp.get("report").asString();
  Out.RemarksJson = Resp.get("remarks_json").asString();
  Out.TraceJson = Resp.get("trace_json").asString();
  return true;
}
