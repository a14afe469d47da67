//===- perfbench/src/Traced.cpp - Layer spans timed from outside ----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"
#include "analysis/CFGCanonicalize.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/TransValidate.h"
#include "frontend/Lexer.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "profile/ProfileInfo.h"
#include "promotion/Cleanup.h"
#include "promotion/RegisterPromotion.h"
#include "regalloc/Coloring.h"
#include "ssa/Mem2Reg.h"
#include "ssa/MemoryOpt.h"
#include "ssa/MemorySSA.h"
#include "support/JSON.h"
#include "support/Remarks.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace srp;

namespace perfbench {

//===----------------------------------------------------------------------===
// Tracer
//===----------------------------------------------------------------------===

size_t Tracer::begin(const char *Name, uint32_t Job) {
  Spans.push_back(Span{Name, monotonicSeconds(), 0,
                       Open.empty() ? -1 : Open.back(), Job});
  Open.push_back(int32_t(Spans.size() - 1));
  return Spans.size() - 1;
}

void Tracer::end(size_t Index) {
  Spans[Index].End = monotonicSeconds();
  Open.pop_back();
}

void Tracer::addChild(const char *Name, double Start, double Seconds,
                      uint32_t Job) {
  Spans.push_back(Span{Name, Start, Start + Seconds,
                       Open.empty() ? -1 : Open.back(), Job});
}

std::map<uint32_t, std::map<std::string, double>>
Tracer::selfSeconds() const {
  // Spans of one thread nest without overlap, so the part of a span its
  // children cover is the sum of their durations.
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.End - S.Start;
  std::map<uint32_t, std::map<std::string, double>> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Self[S.Job][S.Name] += std::max(0.0, S.End - S.Start - Covered[I]);
  }
  return Self;
}

std::string Tracer::toJson() const {
  std::ostringstream OS;
  OS << "[";
  char Buf[160];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"job\":%u}",
                  I ? "," : "", S.Name, S.Start, S.End, S.Parent, S.Job);
    OS << Buf;
  }
  OS << "\n]\n";
  return OS.str();
}

//===----------------------------------------------------------------------===
// Job signatures
//===----------------------------------------------------------------------===

JobSig sigOf(const PipelineResult &R) {
  JobSig S;
  S.Ok = R.Ok;
  if (!R.Errors.empty())
    S.FirstError = R.Errors.front();
  S.Output = R.RunAfter.Output;
  S.ExitValue = R.RunAfter.ExitValue;
  S.MemoryHash = finalMemoryHash(R.RunAfter);
  S.StaticLoadsBefore = R.StaticBefore.Loads;
  S.StaticLoadsAfter = R.StaticAfter.Loads;
  S.StaticStoresBefore = R.StaticBefore.Stores;
  S.StaticStoresAfter = R.StaticAfter.Stores;
  S.DynLoadsBefore = R.RunBefore.Counts.SingletonLoads;
  S.DynLoadsAfter = R.RunAfter.Counts.SingletonLoads;
  S.DynStoresBefore = R.RunBefore.Counts.SingletonStores;
  S.DynStoresAfter = R.RunAfter.Counts.SingletonStores;
  S.Colors = R.Pressure.ColorsNeeded;
  S.InterferenceEdges = R.Pressure.Edges;
  S.ServiceSeconds = R.WallSeconds;
  return S;
}

bool sigOfReport(const std::string &ReportJson, JobSig &S, std::string &Err) {
  json::Value Doc;
  if (!json::parse(ReportJson, Doc, Err))
    return false;
  const json::Value &Counts = Doc.get("counts");
  const json::Value &Exec = Doc.get("exec");
  const json::Value &Pressure = Doc.get("pressure");
  if (!Counts.isObject() || !Exec.isObject() || !Pressure.isObject()) {
    Err = "report lacks counts/exec/pressure";
    return false;
  }
  S = JobSig();
  S.Ok = Doc.get("ok").asBool();
  if (Doc.get("errors").size())
    S.FirstError = Doc.get("errors").items().front().asString("");
  for (const json::Value &V : Exec.get("output").items())
    S.Output.push_back(V.asInt());
  S.ExitValue = Doc.get("exit_value").asInt();
  S.MemoryHash = std::strtoull(
      Exec.get("final_memory_hash").asString("0").c_str(), nullptr, 16);
  auto U = [&](const char *Key) { return uint64_t(Counts.get(Key).asInt()); };
  S.StaticLoadsBefore = U("static_loads_before");
  S.StaticLoadsAfter = U("static_loads_after");
  S.StaticStoresBefore = U("static_stores_before");
  S.StaticStoresAfter = U("static_stores_after");
  S.DynLoadsBefore = U("dynamic_loads_before");
  S.DynLoadsAfter = U("dynamic_loads_after");
  S.DynStoresBefore = U("dynamic_stores_before");
  S.DynStoresAfter = U("dynamic_stores_after");
  S.Colors = uint64_t(Pressure.get("colors_needed").asInt());
  S.InterferenceEdges = uint64_t(Pressure.get("edges").asInt());
  S.ServiceSeconds = Exec.get("wall_seconds").asDouble();
  return true;
}

bool sameBehaviour(const JobSig &A, const JobSig &B, std::string &Why) {
  if (A.Output != B.Output)
    Why = "printed output differs";
  else if (A.ExitValue != B.ExitValue)
    Why = "exit value differs";
  else if (A.MemoryHash != B.MemoryHash)
    Why = "final memory hash differs";
  else
    return true;
  return false;
}

bool sameResult(const JobSig &A, const JobSig &B, std::string &Why) {
  if (!sameBehaviour(A, B, Why))
    return false;
  if (A.Ok != B.Ok)
    Why = "ok flag differs";
  else if (A.StaticLoadsBefore != B.StaticLoadsBefore ||
           A.StaticLoadsAfter != B.StaticLoadsAfter ||
           A.StaticStoresBefore != B.StaticStoresBefore ||
           A.StaticStoresAfter != B.StaticStoresAfter)
    Why = "static memop counts differ";
  else if (A.DynLoadsBefore != B.DynLoadsBefore ||
           A.DynLoadsAfter != B.DynLoadsAfter ||
           A.DynStoresBefore != B.DynStoresBefore ||
           A.DynStoresAfter != B.DynStoresAfter)
    Why = "dynamic memop counts differ";
  else if (A.Colors != B.Colors || A.InterferenceEdges != B.InterferenceEdges)
    Why = "register pressure differs";
  else
    return true;
  return false;
}

//===----------------------------------------------------------------------===
// The traced pipeline
//===----------------------------------------------------------------------===

namespace {

using PassBody = std::function<bool(std::vector<std::string> &Errors)>;

/// The between-pass protocol of PassManager::run, with the verifier and
/// the validator wrapped in spans.
class TracedPassRunner {
  Tracer &T;
  uint32_t Id;
  Module &M;
  AnalysisManager &AM;
  const Strictness Level;

public:
  std::vector<PassRecord> Records;
  VerifyRunStats VStats;

  TracedPassRunner(Tracer &T, uint32_t Id, Module &M, AnalysisManager &AM,
                   Strictness Level)
      : T(T), Id(Id), M(M), AM(AM), Level(Level) {}

  bool run(const std::vector<std::pair<const char *, PassBody>> &Passes,
           std::vector<std::string> &Errors) {
    for (const auto &[Name, Body] : Passes)
      Records.push_back(PassRecord{Name, 0, false, false, false, 0});
    for (size_t I = 0; I != Passes.size(); ++I)
      if (!runOne(Records[I], Passes[I].second, Errors))
        return false;
    return true;
  }

private:
  void attribute(const PassRecord &Rec, const DiagnosticEngine &DE,
                 std::vector<std::string> &Errors) {
    for (const Diagnostic &D : DE.diagnostics())
      if (D.Severity == DiagSeverity::Error)
        Errors.push_back("after pass '" + Rec.Name + "': " + toText(D));
  }

  bool runOne(PassRecord &Rec, const PassBody &Body,
              std::vector<std::string> &Errors) {
    Rec.Ran = true;
    std::unordered_map<std::string, std::string> PreText;
    if (Level >= Strictness::Full) {
      ScopedSpan S(T, "analysis.verify", Id);
      for (const auto &F : M.functions())
        PreText.emplace(F->name(), toString(*F));
    }
    std::unique_ptr<Module> PreClone;
    validation::WebLedger Ledger;
    if (Level >= Strictness::Semantic) {
      ScopedSpan S(T, "analysis.validate", Id);
      ScopedTimer Tm(VStats.Validation.WallSeconds);
      PreClone = cloneModule(M);
    }
    bool PassOk;
    {
      std::optional<validation::ScopedWebLedger> LG;
      if (Level >= Strictness::Semantic)
        LG.emplace(Ledger);
      ScopedTimer Tm(Rec.WallSeconds);
      PassOk = Body(Errors);
    }
    if (!PassOk) {
      Rec.Failed = true;
      if (Errors.empty())
        Errors.push_back("pass '" + Rec.Name + "' failed");
      return false;
    }
    if (Level != Strictness::Off) {
      Rec.Verified = true;
      DiagnosticEngine DE;
      CheckRunStats CS;
      {
        ScopedSpan S(T, "analysis.verify", Id);
        ScopedTimer Tm(VStats.WallSeconds);
        CS = runChecks(M, DE, Level, &AM);
      }
      ++VStats.PassesVerified;
      VStats.ChecksRun += CS.ChecksRun;
      VStats.Diagnostics += CS.Diagnostics;
      Rec.VerifyErrors = DE.errors();
      if (DE.hasErrors()) {
        attribute(Rec, DE, Errors);
        return false;
      }
    }
    if (Level < Strictness::Semantic)
      return true;
    ScopedSpan S(T, "analysis.validate", Id);
    std::unordered_set<std::string> Changed;
    for (const auto &F : M.functions()) {
      auto It = PreText.find(F->name());
      if (It == PreText.end() || It->second != toString(*F))
        Changed.insert(F->name());
    }
    for (const auto &[Name, Text] : PreText)
      if (!M.getFunction(Name))
        Changed.insert(Name);
    if (Changed.empty() && Ledger.size() == 0) {
      VStats.Validation.FunctionsSkippedIdentical += M.functions().size();
      return true;
    }
    DiagnosticEngine VDE;
    bool Proven;
    {
      ScopedTimer Tm(VStats.Validation.WallSeconds);
      std::unique_ptr<Module> PostClone = cloneModule(M);
      Proven = validateTranslation(*PreClone, *PostClone, Ledger.records(),
                                   VDE, VStats.Validation, &Changed);
    }
    ++VStats.Validation.PassesValidated;
    VStats.Diagnostics += VDE.diagnostics().size();
    if (!Proven) {
      Rec.VerifyErrors += VDE.errors();
      attribute(Rec, VDE, Errors);
      return false;
    }
    return true;
  }
};

/// One interpreter run under \p SpanName, with the decode and JIT-compile
/// time the run reports split out as child spans.
ExecutionResult tracedRun(Tracer &T, uint32_t Id, const char *SpanName,
                          Module &M, AnalysisManager &AM,
                          const PipelineOptions &Opts) {
  ScopedSpan S(T, SpanName, Id);
  const double Start = monotonicSeconds();
  Interpreter Interp(M, 200'000'000, Opts.Interp, &AM);
  Interp.setJitThreshold(Opts.JitThreshold);
  ExecutionResult R = Interp.run(Opts.EntryFunction);
  T.addChild("interp.decode", Start, R.Interp.DecodeSeconds, Id);
  T.addChild("jit.compile", Start + R.Interp.DecodeSeconds,
             R.Interp.CompileSeconds, Id);
  return R;
}

bool editedByPromoter(const PromotionStats &S) {
  return S.LoadsReplaced || S.LoadsInserted || S.StoresInserted ||
         S.StoresDeleted || S.DummyLoadsInserted || S.RegisterPhisCreated;
}

} // namespace

TracedJob runTracedJob(const CompileJob &Job, Tracer &T, uint32_t Id) {
  TracedJob Out;
  PipelineResult &R = Out.Result;
  const PipelineOptions &Opts = Job.Opts;

  // Observability capture, as runCompileJob arms it.
  std::optional<RemarkEngine> RE;
  std::optional<ScopedThreadRemarkSink> SinkGuard;
  std::optional<trace::LocalCapture> Capture;
  if (Job.WantRemarks) {
    RE.emplace();
    RE->setPassFilter(Job.RemarksFilter);
    SinkGuard.emplace(*RE);
  }
  if (Job.WantTrace)
    Capture.emplace();

  std::optional<ScopedSpan> Root;
  Root.emplace(T, "job", Id);
  const double T0 = monotonicSeconds();

  // -- Frontend: compileMiniC's stages. parseProgram lexes internally; the
  // lexer is timed on its own at the end.
  const std::string &Src = Job.Source.str();
  std::unique_ptr<Module> M;
  {
    ast::Program P;
    {
      ScopedSpan S(T, "frontend.parse", Id);
      P = parseProgram(Src, R.Errors);
    }
    if (R.Errors.empty()) {
      M = std::make_unique<Module>("mc");
      std::vector<std::string> SemaErrors;
      {
        ScopedSpan S(T, "frontend.sema", Id);
        SemaErrors = analyze(P, *M);
      }
      R.Errors.insert(R.Errors.end(), SemaErrors.begin(), SemaErrors.end());
      if (R.Errors.empty()) {
        ScopedSpan S(T, "frontend.lower", Id);
        lowerProgram(P, *M);
      } else {
        M.reset();
      }
    }
  }

  if (M) {
    for (const auto &F : M->functions())
      for (const auto &BB : *F)
        Out.IRInstructions += BB->size();
    R.M = std::move(M);
    Module &Mod = *R.M;
    AnalysisManager AM(&Mod);
    if (Opts.DisableAnalysisCache)
      AM.setCachingEnabled(false);

    // A function pass: Fn over every function, then the invalidation the
    // returned PreservedAnalyses asks for; stops at the first error.
    auto EachFunction =
        [&](const char *SpanName,
            std::function<PreservedAnalyses(Function &,
                                            std::vector<std::string> &)>
                Fn) -> PassBody {
      return [&, SpanName, Fn](std::vector<std::string> &Errors) {
        const size_t Before = Errors.size();
        for (const auto &F : Mod.functions()) {
          PreservedAnalyses PA;
          {
            ScopedSpan S(T, SpanName, Id);
            PA = Fn(*F, Errors);
          }
          AM.invalidate(*F, PA);
          if (Errors.size() > Before)
            return false;
        }
        return true;
      };
    };

    std::vector<std::pair<const char *, PassBody>> Passes;
    Passes.emplace_back(
        "mem2reg", EachFunction("ssa.mem2reg",
                                [&](Function &F, std::vector<std::string> &) {
                                  promoteLocalsToSSA(F, AM);
                                  return PreservedAnalyses::all();
                                }));
    Passes.emplace_back("canonicalise", [&](std::vector<std::string> &) {
      {
        ScopedSpan S(T, "analysis.canonicalize", Id);
        for (const auto &F : Mod.functions())
          canonicalize(*F, AM);
      }
      R.StaticBefore = countStaticMemOps(Mod);
      return true;
    });
    Passes.emplace_back("profile", [&](std::vector<std::string> &Errors) {
      R.RunBefore = tracedRun(T, Id, "interp.profile", Mod, AM, Opts);
      if (!R.RunBefore.Ok) {
        Errors.push_back("profile run failed: " + R.RunBefore.Error);
        return false;
      }
      AM.setExecution(R.RunBefore.BlockCounts);
      return true;
    });

    const bool NeedsMemorySSA = Opts.Mode == PromotionMode::Paper ||
                                Opts.Mode == PromotionMode::PaperNoProfile ||
                                Opts.Mode == PromotionMode::MemOptOnly;
    if (NeedsMemorySSA)
      Passes.emplace_back(
          "memory-ssa",
          EachFunction("ssa.memory_ssa",
                       [&](Function &F, std::vector<std::string> &) {
                         AM.get<MemorySSAInfo>(F);
                         return PreservedAnalyses::all();
                       }));

    const PreservedAnalyses Stale =
        PreservedAnalyses::all().abandon(AnalysisKind::Bytecode);
    switch (Opts.Mode) {
    case PromotionMode::None:
      break;
    case PromotionMode::Paper:
    case PromotionMode::PaperNoProfile:
      Passes.emplace_back(
          "promotion",
          EachFunction("promotion.promote", [&](Function &F,
                                                std::vector<std::string>
                                                    &Errors) {
            const ProfileInfo &PI = Opts.Mode == PromotionMode::Paper
                                        ? AM.executionProfile()
                                        : AM.get<StaticFrequency>(F).Freq;
            const bool CheckDelta = Opts.VerifyEachStep &&
                                    Opts.VerifyStrictness >= Strictness::Full;
            StaticCounts Before =
                CheckDelta ? countStaticMemOps(F) : StaticCounts{};
            const size_t LedgerBefore =
                validation::sink() ? validation::sink()->size() : 0;
            PromotionStats PS = promoteRegisters(F, PI, AM, Opts.Promo);
            R.Promo += PS;
            if (validation::WebLedger *L = validation::sink())
              if (L->size() - LedgerBefore != PS.WebsPromoted)
                Errors.push_back("promotion ledger mismatch in '" +
                                 F.name() + "'");
            if (CheckDelta) {
              StaticCounts After = countStaticMemOps(F);
              PromotionDeltaExpectation E;
              E.LoadsBefore = Before.Loads;
              E.LoadsAfter = After.Loads;
              E.LoadsReplaced = PS.LoadsReplaced;
              E.LoadsInserted = PS.LoadsInserted;
              E.StoresBefore = Before.Stores;
              E.StoresAfter = After.Stores;
              E.StoresDeleted = PS.StoresDeleted;
              E.StoresInserted = PS.StoresInserted;
              DiagnosticEngine DE;
              checkPromotionDelta(E, DE);
              for (const Diagnostic &D : DE.diagnostics())
                if (D.Severity == DiagSeverity::Error)
                  Errors.push_back("promotion ledger mismatch in '" +
                                   F.name() + "': " + D.Message);
            }
            return editedByPromoter(PS) ? Stale : PreservedAnalyses::all();
          }));
      break;
    case PromotionMode::LoopBaseline:
      Passes.emplace_back(
          "promotion",
          EachFunction("promotion.promote",
                       [&](Function &F, std::vector<std::string> &) {
                         LoopPromotionStats S = promoteLoopsBaseline(F, AM);
                         R.Baseline += S;
                         return S.VariablesPromoted ? Stale
                                                    : PreservedAnalyses::all();
                       }));
      break;
    case PromotionMode::Superblock:
      Passes.emplace_back(
          "promotion",
          EachFunction("promotion.promote", [&](Function &F,
                                                std::vector<std::string> &) {
            SuperblockStats S =
                promoteSuperblocks(F, AM.executionProfile(), AM);
            R.Superblock += S;
            return S.TracesFormed || S.VariablesPromoted
                       ? Stale
                       : PreservedAnalyses::all();
          }));
      break;
    case PromotionMode::MemOptOnly:
      Passes.emplace_back(
          "promotion",
          EachFunction("ssa.memopt",
                       [&](Function &F, std::vector<std::string> &) {
                         MemoryOptStats S = optimizeMemorySSA(F, AM);
                         return S.total() ? Stale : PreservedAnalyses::all();
                       }));
      break;
    }

    if (NeedsMemorySSA)
      Passes.emplace_back(
          "cleanup",
          EachFunction("promotion.cleanup",
                       [&](Function &F, std::vector<std::string> &) {
                         CleanupStats S = cleanupAfterPromotion(F, AM);
                         const bool Edited = S.DummyLoadsRemoved ||
                                             S.CopiesPropagated ||
                                             S.DeadInstructionsRemoved ||
                                             S.DeadMemPhisRemoved;
                         return Edited ? Stale : PreservedAnalyses::all();
                       }));

    Passes.emplace_back("measure", [&](std::vector<std::string> &Errors) {
      R.StaticAfter = countStaticMemOps(Mod);
      R.RunAfter = tracedRun(T, Id, "interp.measure", Mod, AM, Opts);
      if (!R.RunAfter.Ok) {
        Errors.push_back("measurement run failed: " + R.RunAfter.Error);
        return false;
      }
      if (R.RunBefore.Output != R.RunAfter.Output)
        Errors.push_back("printed output changed across promotion");
      if (R.RunBefore.ExitValue != R.RunAfter.ExitValue)
        Errors.push_back("exit value changed across promotion");
      if (R.RunBefore.FinalMemory != R.RunAfter.FinalMemory)
        Errors.push_back("final memory state changed across promotion");
      return Errors.empty();
    });

    if (Opts.MeasurePressure)
      Passes.emplace_back(
          "pressure",
          EachFunction("regalloc.pressure", [&](Function &F,
                                                std::vector<std::string> &) {
            PressureReport PR = measureRegisterPressure(F, AM);
            R.Pressure.NumValues += PR.NumValues;
            R.Pressure.Edges += PR.Edges;
            R.Pressure.ColorsNeeded =
                std::max(R.Pressure.ColorsNeeded, PR.ColorsNeeded);
            R.Pressure.MaxLive = std::max(R.Pressure.MaxLive, PR.MaxLive);
            if (RemarkEngine *Sink = remarks::sink())
              Sink->record(
                  Remark(RemarkKind::Analysis, "pressure", "RegisterPressure")
                      .inFunction(F.name())
                      .arg("num-values", PR.NumValues)
                      .arg("interference-edges", PR.Edges)
                      .arg("colors-needed", PR.ColorsNeeded)
                      .arg("max-live", PR.MaxLive));
            return PreservedAnalyses::all();
          }));

    TracedPassRunner Runner(T, Id, Mod, AM,
                            Opts.VerifyEachStep ? Opts.VerifyStrictness
                                                : Strictness::Off);
    R.Ok = Runner.run(Passes, R.Errors) && R.Errors.empty();
    R.Passes = Runner.Records;
    R.Verify = Runner.VStats;
    R.Analysis = AM.cacheStats();
  }
  R.WallSeconds = monotonicSeconds() - T0;

  if (Job.WantRemarks) {
    R.Remarks = RE->remarks();
    R.RemarksCaptured = true;
  }
  if (Job.WantTrace)
    R.TraceJson = Capture->toChromeJson();
  {
    ScopedSpan S(T, "pipeline.report", Id);
    std::string Report = resultToJson(R, Job);
    (void)Report;
  }
  Root.reset();

  // The separate lex call: outside the job span, so it is not charged to
  // the job, and after parseProgram, so both lex a source in the same
  // cache state.
  {
    const double L0 = monotonicSeconds();
    {
      ScopedSpan S(T, "frontend.lex", Id);
      std::vector<std::string> LexErrors;
      Out.Tokens = lex(Src, LexErrors).size();
    }
    Out.LexSeconds = monotonicSeconds() - L0;
  }
  Out.Sig = sigOf(R);
  Out.Insns =
      R.RunBefore.Counts.Instructions + R.RunAfter.Counts.Instructions;
  return Out;
}

} // namespace perfbench
