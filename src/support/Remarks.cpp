//===- support/Remarks.cpp - Optimization remarks -------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/Remarks.h"

using namespace srp;

namespace {
/// The global sink. Relaxed is enough: installation happens-before the
/// pipeline run that emits into it (setSink is called on the same thread
/// that later spawns workers, and thread creation synchronises).
std::atomic<RemarkEngine *> GlobalSink{nullptr};

/// The calling thread's override (remarks::setThreadSink). Shadows the
/// global sink so a server worker's per-job capture never sees remarks
/// from jobs running concurrently on other workers.
thread_local RemarkEngine *ThreadSink = nullptr;
} // namespace

const char *srp::remarkKindName(RemarkKind K) {
  switch (K) {
  case RemarkKind::Passed:
    return "passed";
  case RemarkKind::Missed:
    return "missed";
  case RemarkKind::Analysis:
    return "analysis";
  }
  return "analysis";
}

RemarkEngine *srp::remarks::sink() {
  if (RemarkEngine *RE = ThreadSink)
    return RE;
  return GlobalSink.load(std::memory_order_relaxed);
}

RemarkEngine *srp::remarks::globalSink() {
  return GlobalSink.load(std::memory_order_relaxed);
}

void srp::remarks::setSink(RemarkEngine *RE) {
  GlobalSink.store(RE, std::memory_order_relaxed);
}

void srp::remarks::setThreadSink(RemarkEngine *RE) { ThreadSink = RE; }

std::string Remark::argValue(const std::string &Key) const {
  for (const RemarkArg &A : Args) {
    if (A.Key != Key)
      continue;
    switch (A.Ty) {
    case RemarkArg::Type::Int:
      return std::to_string(A.IntVal);
    case RemarkArg::Type::Bool:
      return A.IntVal ? "true" : "false";
    case RemarkArg::Type::Str:
      return A.StrVal;
    }
  }
  return "";
}

void RemarkEngine::record(Remark R) {
  if (!wants(R.Pass))
    return;
  std::lock_guard<std::mutex> G(Lock);
  Remarks.push_back(std::move(R));
}

std::vector<Remark> RemarkEngine::remarks() const {
  std::lock_guard<std::mutex> G(Lock);
  return Remarks;
}

size_t RemarkEngine::size() const {
  std::lock_guard<std::mutex> G(Lock);
  return Remarks.size();
}

void RemarkEngine::clear() {
  std::lock_guard<std::mutex> G(Lock);
  Remarks.clear();
}

void srp::remarksToJson(json::Writer &W, const std::vector<Remark> &Remarks) {
  W.beginObject()
      .member("remark_count", Remarks.size())
      .key("remarks")
      .beginArray();
  for (const Remark &R : Remarks) {
    W.beginObject()
        .member("kind", remarkKindName(R.Kind))
        .member("pass", R.Pass)
        .member("name", R.Name);
    if (!R.Function.empty())
      W.member("function", R.Function);
    if (!R.Interval.empty())
      W.member("interval", R.Interval)
          .member("interval_depth", R.IntervalDepth);
    if (!R.Web.empty())
      W.member("web", R.Web);
    W.key("args").beginObject(json::Layout::Inline);
    for (const RemarkArg &A : R.Args) {
      W.key(A.Key);
      switch (A.Ty) {
      case RemarkArg::Type::Int:
        W.value(A.IntVal);
        break;
      case RemarkArg::Type::Bool:
        W.value(A.IntVal != 0);
        break;
      case RemarkArg::Type::Str:
        W.value(A.StrVal);
        break;
      }
    }
    W.end().end();
  }
  W.end().end();
}

std::string srp::remarksToJson(const std::vector<Remark> &Remarks) {
  return json::render(remarksToJson, Remarks);
}
