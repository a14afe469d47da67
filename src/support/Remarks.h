//===- support/Remarks.h - Optimization remarks ----------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style optimization remarks for the promotion pipeline. A `Remark`
/// is one promote/reject/analysis decision with a kind (`passed` for a
/// transformation performed, `missed` for a candidate rejected, `analysis`
/// for informational accounting), the emitting pass, a location
/// (function, interval, web), and an ordered list of typed key->value
/// arguments carrying the decision's inputs — e.g. the loads-added /
/// stores-added frequencies of the paper's profitability inequality
/// (§4.3), so a rejection is reproducible from the report alone.
///
/// Remarks flow into a process-global sink (`remarks::setSink`). When no
/// sink is installed — the default — every emission site reduces to one
/// relaxed atomic load and a branch, so the instrumentation is free in
/// production runs; `srpc --remarks-json=<file>` installs an engine for
/// the duration of the pipeline. The engine is thread-safe (the parallel
/// workload driver may emit from many workers); within one single-threaded
/// run the recording order is deterministic and `remarksToJson` renders it
/// byte-stably, same discipline as `stats::toJson`.
///
/// Emission idiom (cheap when disabled, allocation only when enabled):
///
/// \code
///   if (RemarkEngine *RE = remarks::sink())
///     RE->record(Remark(RemarkKind::Missed, "promotion", "UnprofitableWeb")
///                    .inFunction(F.name())
///                    .inInterval(headerName, depth)
///                    .onWeb(webLabel)
///                    .arg("load-benefit", P.LoadBenefit)
///                    .arg("threshold", Opts.ProfitThreshold));
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_REMARKS_H
#define SRP_SUPPORT_REMARKS_H

#include "support/JSON.h"
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace srp {

enum class RemarkKind : uint8_t {
  Passed,   ///< A transformation was applied.
  Missed,   ///< A candidate was considered and rejected.
  Analysis, ///< Informational: derived quantities, accounting.
};

/// Stable spelling used in JSON ("passed" / "missed" / "analysis").
const char *remarkKindName(RemarkKind K);

/// One typed key->value argument. Arguments keep their insertion order so
/// a profitability breakdown reads in the order the decision consumed it.
struct RemarkArg {
  enum class Type : uint8_t { Int, Str, Bool };
  std::string Key;
  Type Ty = Type::Int;
  int64_t IntVal = 0;
  std::string StrVal;
};

/// One optimization remark. Built fluently; see the header comment.
class Remark {
public:
  RemarkKind Kind = RemarkKind::Analysis;
  std::string Pass;     ///< Emitting pass ("promotion", "mem2reg", ...).
  std::string Name;     ///< Remark identifier ("PromotedWeb", ...).
  std::string Function; ///< Enclosing function, "" if not applicable.
  std::string Interval; ///< Interval header block name; "root" for the
                        ///< whole-function interval; "" if not applicable.
  unsigned IntervalDepth = 0;
  std::string Web;      ///< Web label ("<object>#<id>"), "" if n/a.
  std::vector<RemarkArg> Args;

  Remark() = default;
  Remark(RemarkKind K, std::string Pass, std::string Name)
      : Kind(K), Pass(std::move(Pass)), Name(std::move(Name)) {}

  Remark &inFunction(std::string F) {
    Function = std::move(F);
    return *this;
  }
  Remark &inInterval(std::string Header, unsigned Depth) {
    Interval = std::move(Header);
    IntervalDepth = Depth;
    return *this;
  }
  Remark &onWeb(std::string W) {
    Web = std::move(W);
    return *this;
  }
  Remark &arg(std::string Key, int64_t V) {
    Args.push_back({std::move(Key), RemarkArg::Type::Int, V, {}});
    return *this;
  }
  Remark &arg(std::string Key, uint64_t V) {
    return arg(std::move(Key), static_cast<int64_t>(V));
  }
  Remark &arg(std::string Key, int V) {
    return arg(std::move(Key), static_cast<int64_t>(V));
  }
  Remark &arg(std::string Key, unsigned V) {
    return arg(std::move(Key), static_cast<int64_t>(V));
  }
  Remark &arg(std::string Key, bool V) {
    Args.push_back({std::move(Key), RemarkArg::Type::Bool, V ? 1 : 0, {}});
    return *this;
  }
  Remark &arg(std::string Key, std::string V) {
    Args.push_back({std::move(Key), RemarkArg::Type::Str, 0, std::move(V)});
    return *this;
  }

  /// The value of argument \p Key as rendered in JSON, or "" if absent
  /// (test convenience).
  std::string argValue(const std::string &Key) const;
};

/// Collects remarks. Thread-safe; recording order within one thread is
/// the emission order. An optional pass filter drops non-matching remarks
/// at the source (`srpc --remarks-filter=<pass>`).
class RemarkEngine {
  mutable std::mutex Lock;
  std::vector<Remark> Remarks;
  std::string PassFilter; ///< Empty = accept every pass.

public:
  /// Accept only remarks whose Pass equals \p Pass ("" accepts all).
  void setPassFilter(std::string Pass) { PassFilter = std::move(Pass); }
  const std::string &passFilter() const { return PassFilter; }

  bool wants(const std::string &Pass) const {
    return PassFilter.empty() || PassFilter == Pass;
  }

  void record(Remark R);

  /// Snapshot of everything recorded so far, in recording order.
  std::vector<Remark> remarks() const;
  size_t size() const;
  void clear();
};

namespace remarks {

/// The sink the calling thread should emit into: the thread-local
/// override when one is installed (per-job capture on a server worker),
/// else the process-global sink, else null (the common, zero-cost case).
/// Emission sites branch on this; see the header comment.
RemarkEngine *sink();

/// The process-global sink (ignoring any thread-local override), or null.
RemarkEngine *globalSink();

/// Installs \p RE as the process-global sink (null uninstalls). The caller
/// keeps ownership and must outlive the installation.
void setSink(RemarkEngine *RE);

/// Installs \p RE as the calling thread's sink (null uninstalls). While
/// set it shadows the global sink for this thread only, which is how the
/// compile server captures one job's remarks without interleaving
/// concurrent jobs (each worker arms its own override for the duration
/// of the job it is running).
void setThreadSink(RemarkEngine *RE);

} // namespace remarks

/// Installs a sink for a scope (tests, srpc).
class ScopedRemarkSink {
  RemarkEngine *Prev;

public:
  explicit ScopedRemarkSink(RemarkEngine &RE) : Prev(remarks::globalSink()) {
    remarks::setSink(&RE);
  }
  ~ScopedRemarkSink() { remarks::setSink(Prev); }
  ScopedRemarkSink(const ScopedRemarkSink &) = delete;
  ScopedRemarkSink &operator=(const ScopedRemarkSink &) = delete;
};

/// Installs a calling-thread-only sink for a scope (per-job capture; see
/// remarks::setThreadSink). Not nestable with itself on one thread.
class ScopedThreadRemarkSink {
public:
  explicit ScopedThreadRemarkSink(RemarkEngine &RE) {
    remarks::setThreadSink(&RE);
  }
  ~ScopedThreadRemarkSink() { remarks::setThreadSink(nullptr); }
  ScopedThreadRemarkSink(const ScopedThreadRemarkSink &) = delete;
  ScopedThreadRemarkSink &operator=(const ScopedThreadRemarkSink &) = delete;
};

/// Renders remarks as a block JSON object ({"remark_count": N,
/// "remarks": [...]}, each remark's args inline). Field order and
/// argument order are fixed, so equal inputs render byte-identically
/// (same discipline as stats::toJson). The string form renders a whole
/// document.
void remarksToJson(json::Writer &W, const std::vector<Remark> &Remarks);
std::string remarksToJson(const std::vector<Remark> &Remarks);

} // namespace srp

#endif // SRP_SUPPORT_REMARKS_H
