//===- gen/Corpus.h - Differential fuzzing corpus harness ------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corpus harness behind srp-corpus and the fuzz ctest gates: sweeps
/// generated programs (gen/ProgramGen.h) through
///  - the six-mode differential oracle (every PromotionMode against the
///    PromotionMode::None control: exit value, printed output, final
///    memory, and the shared pre-promotion run),
///  - Strictness::Full between-pass verification, and
///  - interpreter engine parity, walk-vs-bytecode and native(JIT)-vs-
///    bytecode (full ExecutionResult, block/edge profiles compared by
///    block name),
/// batching seeds through runPipelineParallel so a 1000-program sweep
/// saturates the worker pool without holding 1000 modules alive.
///
/// The harness is coverage-guided: it drains the optimization-remark
/// stream (support/Remarks.h) after every batch, accounts which promoters
/// fired and which §4.3 rejection reasons were hit, and steers the next
/// batch's shape profiles toward whatever the sweep has not yet
/// exercised. Steering only ever pins a seed's ShapeProfile — the program
/// for (Seed, Profile) is byte-stable — so every failure in the report is
/// reproducible standalone with `srp-gen -seed=N -profile=P`.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_GEN_CORPUS_H
#define SRP_GEN_CORPUS_H

#include "analysis/StaticAnalysis.h"
#include "gen/ProgramGen.h"
#include "support/JSON.h"
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace srp::gen {

/// Options for checking one program (also the reducer's oracle).
struct CheckOptions {
  /// Between-pass verification depth. The fuzz suites run Full.
  Strictness Verify = Strictness::Full;
  bool VerifyEachStep = true;
  /// Upgrade Full verification to Strictness::Semantic: every pass of
  /// every mode is additionally translation-validated against its
  /// pre-pass snapshot (analysis/TransValidate.h), and an unproven pass
  /// fails the program with the stable "semantic-validation:<mode>"
  /// signature so srp-reduce can shrink validator failures like any other
  /// oracle mismatch.
  bool Semantic = true;
  /// Re-run the control and paper modes on the tree-walker and require
  /// field-by-field ExecutionResult equality with the bytecode runs.
  bool EngineParity = true;
  /// Re-run the control and paper modes on the native (JIT) engine with a
  /// first-call compile threshold and require the same field-by-field
  /// equality. Safe on non-x86-64 hosts: the engine degrades to bytecode
  /// there, so the comparison is trivially exact.
  bool NativeParity = true;
  /// Worker threads for the per-program mode fan-out (0 = hardware).
  /// Corpus sweeps flatten whole batches instead and leave this at 1.
  unsigned Threads = 1;
};

/// Outcome of checking one program. `Signature` is a stable, short
/// failure classifier — "oracle-mismatch:paper:output",
/// "verify-diagnostics:superblock", "engine-parity:none:block-counts",
/// "compile-error", ... — empty when the program passed. The reducer
/// preserves it while shrinking; `Detail` is the human-readable evidence.
struct CheckResult {
  bool Ok = true;
  std::string Signature;
  std::string Detail;
};

/// Runs one Mini-C program through the whole oracle stack.
CheckResult checkSource(const std::string &Source,
                        const CheckOptions &Opts = {});

/// One failing corpus entry. (Seed, Profile) regenerates Source exactly.
struct CorpusFailure {
  uint64_t Seed = 0;
  ShapeProfile Profile = ShapeProfile::Default;
  std::string Signature;
  std::string Detail;
  std::string Source;
};

/// Aggregate remark-coverage accounting for a sweep. Keys are
/// "pass:RemarkName" ("promotion:PromotedWeb", "promotion:MultipleLiveIns",
/// "mem2reg:PromotedLocal", ...).
struct CoverageCounts {
  std::map<std::string, uint64_t> Promoters;  ///< Passed remarks
  std::map<std::string, uint64_t> Rejections; ///< Missed remarks
  uint64_t AnalysisRemarks = 0;

  uint64_t promoter(const std::string &Key) const;
  uint64_t rejection(const std::string &Key) const;
  void merge(const CoverageCounts &O);
  /// Required keys with a zero count, in deterministic order.
  std::vector<std::string> missingRequired() const;
};

/// Every promoter the corpus is required to exercise (one Passed remark
/// per promoting pass: promotion, mem2reg, loop-promotion, superblock).
const std::vector<std::string> &requiredPromoters();

/// Every §4.3 WebPromotion rejection reason the corpus is required to
/// exercise (NoMemoryWork, UnprofitableWeb, StoresOnlyNotEliminated,
/// MultipleLiveIns).
const std::vector<std::string> &requiredRejections();

/// The shape profile most likely to produce coverage key \p Key — the
/// steering table (exposed for the coverage meta-test).
ShapeProfile profileForCoverageKey(const std::string &Key);

/// Options for a corpus sweep.
struct CorpusOptions {
  uint64_t FirstSeed = 1;
  unsigned Count = 50;
  unsigned Threads = 0;   ///< worker threads (0 = hardware)
  unsigned BatchSize = 32;///< seeds checked per parallel batch
  bool Feedback = true;   ///< steer profiles toward missing coverage
  bool KeepFailingSource = true; ///< retain Source in CorpusFailure
  unsigned MaxFailures = 16; ///< stop sweeping after this many failures
  CheckOptions Check;
};

/// Result of a corpus sweep.
struct CorpusReport {
  unsigned NumPrograms = 0; ///< programs actually checked
  unsigned NumPassed = 0;
  std::vector<CorpusFailure> Failures;
  CoverageCounts Coverage;
  /// Programs generated per profile (steering visibility).
  std::map<std::string, uint64_t> ProfilePrograms;

  bool ok() const { return Failures.empty(); }
};

/// Renders \p R as the `srp-corpus -json` report: a block object with
/// program counts, \p FirstSeed, the profile and coverage counts, and
/// one inline row per failure.
void corpusReportToJson(json::Writer &W, const CorpusReport &R,
                        uint64_t FirstSeed);

/// Per-batch progress callback (Done, Total, report-so-far).
using CorpusProgressFn =
    std::function<void(unsigned, unsigned, const CorpusReport &)>;

/// Runs the sweep. Deterministic for fixed options: steering depends only
/// on aggregate coverage counts, which are order-independent sums.
CorpusReport runCorpus(const CorpusOptions &Opts,
                       const CorpusProgressFn &Progress = nullptr);

/// Stable one-program signature used by the golden corpus suite: the
/// remark census of the paper, loop-baseline and superblock promoters
/// plus the paper run's dynamic facts. Renders via signatureToString.
struct ProgramSignature {
  bool Ok = false;
  std::string Error; ///< first pipeline error when !Ok
  int64_t ExitValue = 0;
  size_t OutputLen = 0;
  uint64_t MemOpsBefore = 0; ///< dynamic singleton memops, pre-promotion
  uint64_t MemOpsAfter = 0;  ///< same, post-promotion (paper mode)
  std::map<std::string, uint64_t> Promoters, Rejections;
};

ProgramSignature signatureFor(const std::string &Source);

/// Byte-stable rendering ("ok exit=3 out=17 memops=120->36 | passed
/// promotion:PromotedWeb=2 ... | missed promotion:UnprofitableWeb=1 ...").
std::string signatureToString(const ProgramSignature &Sig);

} // namespace srp::gen

#endif // SRP_GEN_CORPUS_H
