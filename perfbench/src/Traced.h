//===- perfbench/src/Traced.h - Layer spans timed from outside --*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's two halves:
///
///  - Tracer, an in-memory span recorder (name, start, end, parent, job
///    id) whose spans are written out when the run ends, and which
///    derives each layer's self time (its span minus the parts its child
///    spans cover);
///  - runTracedJob, which drives one CompileJob through the layers'
///    public functions in the pipeline's order (the frontend stages,
///    mem2reg, canonicalize, the interpreter runs, the promoter, cleanup,
///    measure, pressure, the between-pass verifier and translation
///    validator, resultToJson), wrapping each call in a span.
///
/// runTracedJob re-states the sequencing of PipelineBuilder::run and
/// PassManager::run. JobSig is what the benchmark compares between it and
/// runCompileJob on the same job, so a pipeline change the traced run
/// does not mirror fails loudly instead of mis-attributing time.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_TRACED_H
#define SRP_PERFBENCH_TRACED_H

#include "pipeline/Job.h"
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name;
  double Start, End;
  int32_t Parent; ///< index into the span list, -1 for a root
  uint32_t Job;
};

class Tracer {
  std::vector<Span> Spans;
  std::vector<int32_t> Open;

public:
  Tracer() { Spans.reserve(1 << 16); }
  /// Opens a span under the innermost open one; returns its index.
  size_t begin(const char *Name, uint32_t Job);
  void end(size_t Index);
  /// Records an already-measured child of the innermost open span,
  /// starting at \p Start and lasting \p Seconds.
  void addChild(const char *Name, double Start, double Seconds, uint32_t Job);
  const std::vector<Span> &spans() const { return Spans; }
  /// Self seconds per (job, span name).
  std::map<uint32_t, std::map<std::string, double>> selfSeconds() const;
  /// The spans as a JSON array, one object per span.
  std::string toJson() const;
};

class ScopedSpan {
  Tracer &T;
  size_t Index;

public:
  ScopedSpan(Tracer &T, const char *Name, uint32_t Job)
      : T(T), Index(T.begin(Name, Job)) {}
  ~ScopedSpan() { T.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
};

/// The observable and counted results of one job: what every route a
/// job can take (runCompileJob, the server, the traced run, the walker
/// reference) is compared on.
struct JobSig {
  bool Ok = false;
  std::string FirstError;
  std::vector<int64_t> Output;
  int64_t ExitValue = 0;
  uint64_t MemoryHash = 0;
  uint64_t StaticLoadsBefore = 0, StaticLoadsAfter = 0;
  uint64_t StaticStoresBefore = 0, StaticStoresAfter = 0;
  uint64_t DynLoadsBefore = 0, DynLoadsAfter = 0;
  uint64_t DynStoresBefore = 0, DynStoresAfter = 0;
  uint64_t Colors = 0, InterferenceEdges = 0;
  /// The job's pipeline wall time as the run reported it (not compared).
  double ServiceSeconds = 0;

  uint64_t dynMemopsAfter() const { return DynLoadsAfter + DynStoresAfter; }
};

JobSig sigOf(const srp::PipelineResult &R);
/// Decodes the signature from a `--stats-json` report (server replies).
bool sigOfReport(const std::string &ReportJson, JobSig &Out, std::string &Err);
/// Behaviour only: output, exit value, final-memory hash.
bool sameBehaviour(const JobSig &A, const JobSig &B, std::string &Why);
/// Behaviour plus every static/dynamic count and the pressure figures.
bool sameResult(const JobSig &A, const JobSig &B, std::string &Why);

/// Per-job figures the traced run adds to the spans.
struct TracedJob {
  JobSig Sig;
  srp::PipelineResult Result;
  uint64_t Tokens = 0;
  uint64_t IRInstructions = 0; ///< after lowering
  uint64_t Insns = 0;          ///< executed, profile + measure runs
  /// The separate lex call, made after the job's span closes. It is work
  /// the real pipeline does not do, so callers take it out of their
  /// wall-time figures.
  double LexSeconds = 0;
};

/// Runs \p Job through the layers one public call at a time, recording
/// spans into \p T under job id \p Id.
TracedJob runTracedJob(const srp::CompileJob &Job, Tracer &T, uint32_t Id);

} // namespace perfbench

#endif // SRP_PERFBENCH_TRACED_H
