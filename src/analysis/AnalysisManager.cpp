//===- analysis/AnalysisManager.cpp - Cached function analyses ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "ir/Function.h"
#include "profile/ProfileInfo.h" // header-only use; no srp_profile link dep
#include "support/Statistics.h"
#include <cstdlib>
#include <cstring>

using namespace srp;

SRP_STATISTIC(NumCacheHits, "analysis", "cache-hits",
              "Analysis requests served from the cache");
SRP_STATISTIC(NumCacheMisses, "analysis", "cache-misses",
              "Analysis requests that (re)built the analysis");
SRP_STATISTIC(NumInvalidations, "analysis", "invalidations",
              "Cached analyses dropped by invalidation");
SRP_STATISTIC(NumCFGEditEvents, "analysis", "cfg-edit-events",
              "CFG change notifications received from CFGEdit");
SRP_STATISTIC(NumSSAEditEvents, "analysis", "ssa-edit-events",
              "SSA edit notifications received from the SSA updater");
SRP_STATISTIC(NumDominatorsBuilt, "analysis", "dominators-built",
              "Dominator trees constructed");
SRP_STATISTIC(NumIntervalsBuilt, "analysis", "intervals-built",
              "Interval trees constructed");
SRP_STATISTIC(NumMemSSABuilt, "analysis", "memssa-built",
              "Memory SSA forms constructed");
SRP_STATISTIC(NumProfilesBuilt, "analysis", "profiles-built",
              "Execution profiles constructed");
SRP_STATISTIC(NumStaticFreqBuilt, "analysis", "static-freq-built",
              "Static frequency estimates constructed");
SRP_STATISTIC(NumLivenessBuilt, "analysis", "liveness-built",
              "Liveness analyses constructed");
SRP_STATISTIC(NumBytecodeBuilt, "analysis", "bytecode-built",
              "Interpreter bytecode decodes constructed");
SRP_STATISTIC(NumNativeCodeBuilt, "analysis", "native-code-built",
              "Native-code cache entries constructed");

const char *srp::analysisKindName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Dominators:
    return "dominators";
  case AnalysisKind::Intervals:
    return "intervals";
  case AnalysisKind::MemorySSA:
    return "memssa";
  case AnalysisKind::Profile:
    return "profile";
  case AnalysisKind::StaticFrequency:
    return "static-freq";
  case AnalysisKind::Liveness:
    return "liveness";
  case AnalysisKind::Bytecode:
    return "bytecode";
  case AnalysisKind::NativeCode:
    return "native-code";
  }
  return "unknown";
}

namespace {

Statistic *buildCounterFor(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::Dominators:
    return &NumDominatorsBuilt;
  case AnalysisKind::Intervals:
    return &NumIntervalsBuilt;
  case AnalysisKind::MemorySSA:
    return &NumMemSSABuilt;
  case AnalysisKind::Profile:
    return &NumProfilesBuilt;
  case AnalysisKind::StaticFrequency:
    return &NumStaticFreqBuilt;
  case AnalysisKind::Liveness:
    return &NumLivenessBuilt;
  case AnalysisKind::Bytecode:
    return &NumBytecodeBuilt;
  case AnalysisKind::NativeCode:
    return &NumNativeCodeBuilt;
  }
  return nullptr;
}

bool cacheDisabledByEnv() {
  const char *V = std::getenv("SRP_DISABLE_ANALYSIS_CACHE");
  return V && std::strcmp(V, "0") != 0 && std::strcmp(V, "") != 0;
}

} // namespace

AnalysisManager::AnalysisManager(Module *M)
    : M(M), CachingEnabled(!cacheDisabledByEnv()) {
  addIRChangeListener(this);
}

AnalysisManager::~AnalysisManager() {
  removeIRChangeListener(this);
  clear();
}

const AnalysisManager::Slot *
AnalysisManager::findSlot(const Function &F, AnalysisKind K) const {
  auto It = Cache.find(const_cast<Function *>(&F));
  if (It == Cache.end())
    return nullptr;
  return &It->second.Slots[static_cast<unsigned>(K)];
}

bool AnalysisManager::isCached(Function &F, AnalysisKind K) const {
  const Slot *S = findSlot(F, K);
  return S && S->Ptr;
}

uint64_t AnalysisManager::generation(Function &F, AnalysisKind K) const {
  const Slot *S = findSlot(F, K);
  return S ? S->Gen : 0;
}

bool AnalysisManager::retire(Slot &S) {
  if (!S.Ptr)
    return false;
  Graveyard.push_back(S); // keeps the instance alive until clear()
  S.Ptr = nullptr;
  S.Destroy = nullptr;
  ++S.Gen;
  return true;
}

void AnalysisManager::retireExecProfile() {
  if (!ExecProfile)
    return;
  Slot S;
  S.Ptr = ExecProfile.release();
  S.Destroy = destroyAs<ProfileInfo>;
  Graveyard.push_back(S);
}

void AnalysisManager::recordHit(AnalysisKind K) {
  ++Stats.Hits;
  ++NumCacheHits;
  if (trace::enabled())
    trace::instant("analysis", std::string("hit:") + analysisKindName(K));
}

namespace {
SRP_HISTOGRAM(BuildMicros, "analysis", "build-micros",
              "Wall time of one analysis build (us), nested builds "
              "included in the outer observation");
} // namespace

void AnalysisManager::recordBuildTime(double Seconds) {
  BuildMicros.observeSeconds(Seconds);
}

void AnalysisManager::recordMiss(AnalysisKind K) {
  ++Stats.Misses;
  ++NumCacheMisses;
  ++Stats.Builds[static_cast<unsigned>(K)];
  if (Statistic *C = buildCounterFor(K))
    ++*C;
  if (trace::enabled())
    trace::instant("analysis", std::string("miss:") + analysisKindName(K));
}

void AnalysisManager::invalidateOne(Function &F, AnalysisKind K) {
  auto It = Cache.find(&F);
  if (It == Cache.end())
    return;
  if (retire(It->second.Slots[static_cast<unsigned>(K)])) {
    ++Stats.Invalidations;
    ++NumInvalidations;
  }
}

void AnalysisManager::invalidate(Function &F) {
  invalidate(F, PreservedAnalyses::none());
}

void AnalysisManager::invalidate(Function &F, AnalysisKind K) {
  invalidate(F, PreservedAnalyses::all().abandon(K));
}

void AnalysisManager::invalidate(Function &F, const PreservedAnalyses &PA) {
  if (PA.areAllPreserved())
    return;
  // Close the preserved-set under the dependency chain: Intervals embed
  // dominator structure, and the static frequency estimate is computed
  // from the interval nesting.
  PreservedAnalyses Eff = PA;
  if (!Eff.isPreserved(AnalysisKind::Dominators))
    Eff.abandon(AnalysisKind::Intervals);
  if (!Eff.isPreserved(AnalysisKind::Intervals))
    Eff.abandon(AnalysisKind::StaticFrequency);
  // Native code is compiled from the decoded bytecode stream: a stale
  // decode implies stale machine code (same instruction indices are baked
  // into the deopt metadata).
  if (!Eff.isPreserved(AnalysisKind::Bytecode))
    Eff.abandon(AnalysisKind::NativeCode);
  for (unsigned I = 0; I != NumAnalysisKinds; ++I) {
    auto K = static_cast<AnalysisKind>(I);
    if (Eff.isPreserved(K))
      continue;
    if (K == AnalysisKind::Profile) {
      // Module-wide: the built ProfileInfo is dropped (executionProfile()
      // rebuilds from the recorded counts) but the measurement stays.
      if (ExecProfile) {
        retireExecProfile();
        ++ProfileGen;
        ++Stats.Invalidations;
        ++NumInvalidations;
      }
      continue;
    }
    invalidateOne(F, K);
  }
}

void AnalysisManager::clear() {
  for (auto &[F, Entry] : Cache)
    for (Slot &S : Entry.Slots)
      if (S.Ptr)
        S.Destroy(S.Ptr);
  Cache.clear();
  for (Slot &S : Graveyard)
    S.Destroy(S.Ptr);
  Graveyard.clear();
  Canonical.clear();
  ExecCounts.clear();
  ExecProfile.reset();
  HaveExecution = false;
  ++ProfileGen;
}

void AnalysisManager::setExecution(
    const std::unordered_map<const BasicBlock *, uint64_t> &BlockCounts) {
  ExecCounts = BlockCounts;
  HaveExecution = true;
  retireExecProfile();
  ++ProfileGen;
}

bool AnalysisManager::hasExecutionProfile() const { return HaveExecution; }

const ProfileInfo &AnalysisManager::executionProfile() {
  assert(HaveExecution && "no execution recorded; call setExecution first");
  if (ExecProfile && CachingEnabled) {
    recordHit(AnalysisKind::Profile);
    return *ExecProfile;
  }
  recordMiss(AnalysisKind::Profile);
  auto PI = std::make_unique<ProfileInfo>();
  for (const auto &[BB, N] : ExecCounts)
    PI->setFrequency(BB, N);
  retireExecProfile(); // forced-miss mode: supersede, don't free
  ExecProfile = std::move(PI);
  ++ProfileGen;
  return *ExecProfile;
}

void AnalysisManager::cfgChanged(Function &F) {
  if (M && F.parent() != M)
    return;
  ++Stats.CFGEditEvents;
  ++NumCFGEditEvents;
  // Edge splitting / pred redirection moves blocks and edges: dominators
  // (and everything derived from them), liveness and the decoded bytecode
  // (block indices, branch targets, phi copy lists) are stale. Memory SSA
  // survives — CFGEdit maintains memory-phi incoming lists itself — and
  // the execution profile is block-keyed, so existing blocks keep their
  // measured frequencies (new blocks report 0, which is conservative).
  invalidate(F, PreservedAnalyses::all()
                    .abandon(AnalysisKind::Dominators)
                    .abandon(AnalysisKind::Liveness)
                    .abandon(AnalysisKind::Bytecode)
                    .abandon(AnalysisKind::NativeCode));
}

void AnalysisManager::ssaEdited(Function &F) {
  if (M && F.parent() != M)
    return;
  ++Stats.SSAEditEvents;
  ++NumSSAEditEvents;
  // In-place SSA edits (phi insertion, use renaming) change live ranges
  // but no CFG edge, and the memory-SSA chains are exactly what the
  // updater keeps consistent. Decoded bytecode bakes operand slots and
  // instruction streams, so any instruction-level edit retires it.
  invalidate(F, PreservedAnalyses::all()
                    .abandon(AnalysisKind::Liveness)
                    .abandon(AnalysisKind::Bytecode)
                    .abandon(AnalysisKind::NativeCode));
}

void srp::analysisCacheStatsToJson(json::Writer &W,
                                   const AnalysisCacheStats &S) {
  W.beginObject()
      .member("cache_hits", S.Hits)
      .member("cache_misses", S.Misses)
      .member("invalidations", S.Invalidations)
      .member("cfg_edit_events", S.CFGEditEvents)
      .member("ssa_edit_events", S.SSAEditEvents)
      .key("built")
      .beginObject(json::Layout::Inline);
  for (unsigned I = 0; I != NumAnalysisKinds; ++I)
    W.member(analysisKindName(static_cast<AnalysisKind>(I)), S.Builds[I]);
  W.end().end();
}

std::string srp::analysisCacheStatsToJson(const AnalysisCacheStats &S) {
  return json::render(analysisCacheStatsToJson, S);
}
