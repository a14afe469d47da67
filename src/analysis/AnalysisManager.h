//===- analysis/AnalysisManager.h - Cached function analyses ---*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style per-function analysis cache with explicit, precise
/// invalidation. The promotion pipeline consumes dominators, interval
/// trees, memory SSA, profile data, static frequency estimates and
/// liveness; before this layer every client recomputed them ad hoc (the
/// same dominator tree was built up to five times per function per run).
///
/// Three mechanisms keep the cache sound:
///
///  1. `PreservedAnalyses` — every function pass run under the pass
///     manager returns the set of analyses it kept valid; everything else
///     is invalidated for that function (see pipeline/PassManager.h).
///  2. The `IRChangeListener` hook (ir/CFGEdit.h) — CFG surgery
///     (`splitEdge`, `redirectPredsToNewBlock`) and the incremental SSA
///     updater report edits as they happen, so transforms that mutate the
///     CFG mid-pass (canonicalisation's fixpoint, superblock tail
///     splitting) invalidate precisely instead of wholesale.
///  3. Retire-don't-free — invalidated analysis instances are moved to a
///     graveyard owned by the manager and released only by `clear()` (or
///     destruction), so snapshots taken before a mutation remain *alive*
///     (readable, never dangling) while `AnalysisHandle::stale()` reports
///     that they are out of date.
///
/// Analyses register through `AnalysisTraits<T>` specialisations declared
/// in their own headers (memory SSA in ssa/, liveness in regalloc/, ...),
/// which keeps the library layering acyclic: this header only knows the
/// same-layer analyses (dominators, intervals); higher-layer builds are
/// instantiated in the calling translation unit.
///
/// Caching can be force-disabled for differential testing with the
/// `SRP_DISABLE_ANALYSIS_CACHE=1` environment knob or programmatically via
/// `setCachingEnabled(false)`: every request then rebuilds (and counts a
/// miss), but results and lifetimes are otherwise identical.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_ANALYSISMANAGER_H
#define SRP_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/Dominators.h"
#include "analysis/Intervals.h"
#include "ir/CFGEdit.h"
#include "support/JSON.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace srp {

class Function;
class Module;
class ProfileInfo;

/// Identity of every cacheable analysis. `Profile` (execution-derived
/// block frequencies) is module-wide — one interpreter run covers every
/// function — and is managed through setExecution()/executionProfile();
/// the rest are per-function slots served by get<T>().
enum class AnalysisKind : unsigned {
  Dominators,      ///< DominatorTree (analysis/Dominators.h)
  Intervals,       ///< IntervalTree (analysis/Intervals.h)
  MemorySSA,       ///< MemorySSAInfo (ssa/MemorySSA.h): built form + aliases
  Profile,         ///< ProfileInfo from a measured execution (module-wide)
  StaticFrequency, ///< StaticFrequency estimate (profile/ProfileInfo.h)
  Liveness,        ///< Liveness (regalloc/Liveness.h)
  Bytecode,        ///< DecodedFunction (interp/Bytecode.h): interpreter tier
  NativeCode,      ///< jit::NativeCode (jit/NativeJIT.h): x86-64 baseline tier
};
inline constexpr unsigned NumAnalysisKinds = 8;

/// Short stable spelling used in statistics and JSON ("dominators", ...).
const char *analysisKindName(AnalysisKind K);

/// The set of analyses a pass kept valid, returned by every function pass.
/// Start from all() or none() and chain preserve()/abandon(). Invalidation
/// through a preserved-set is still dependency-aware: abandoning
/// Dominators takes Intervals and StaticFrequency with it (see
/// AnalysisManager::invalidate).
class PreservedAnalyses {
  unsigned Mask = 0; // bit set = preserved
  static constexpr unsigned AllMask = (1u << NumAnalysisKinds) - 1;

  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}

public:
  PreservedAnalyses() = default;

  static PreservedAnalyses all() { return PreservedAnalyses(AllMask); }
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= 1u << static_cast<unsigned>(K);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisKind K) {
    Mask &= ~(1u << static_cast<unsigned>(K));
    return *this;
  }
  bool isPreserved(AnalysisKind K) const {
    return Mask & (1u << static_cast<unsigned>(K));
  }
  bool areAllPreserved() const { return Mask == AllMask; }
  bool areNonePreserved() const { return Mask == 0; }

  /// Keeps only what both sets preserve (sequencing two transforms).
  PreservedAnalyses &intersect(const PreservedAnalyses &O) {
    Mask &= O.Mask;
    return *this;
  }
};

class AnalysisManager;

/// Registration point for cacheable analyses. Specialisations provide:
///   static constexpr AnalysisKind Kind;
///   static std::unique_ptr<T> build(Function &F, AnalysisManager &AM);
/// build() may recursively request other analyses through \p AM.
template <class T> struct AnalysisTraits;

/// Per-run accounting, also mirrored into the global statistics registry
/// (analysis.cache-hits, analysis.dominators-built, ...). Snapshots ride
/// on PipelineResult and feed the `analysis` section of `--stats-json`.
struct AnalysisCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Invalidations = 0;   ///< Slots actually dropped (cached only).
  uint64_t CFGEditEvents = 0;   ///< cfgChanged notifications received.
  uint64_t SSAEditEvents = 0;   ///< ssaEdited notifications received.
  std::array<uint64_t, NumAnalysisKinds> Builds{}; ///< Constructions by kind.

  uint64_t builds(AnalysisKind K) const {
    return Builds[static_cast<unsigned>(K)];
  }

  AnalysisCacheStats &operator+=(const AnalysisCacheStats &R) {
    Hits += R.Hits;
    Misses += R.Misses;
    Invalidations += R.Invalidations;
    CFGEditEvents += R.CFGEditEvents;
    SSAEditEvents += R.SSAEditEvents;
    for (unsigned I = 0; I != NumAnalysisKinds; ++I)
      Builds[I] += R.Builds[I];
    return *this;
  }
};

/// Renders \p S as a block JSON object ({"cache_hits": ..., "built":
/// {...}} with "built" inline); byte-stable. The string form renders a
/// whole document.
void analysisCacheStatsToJson(json::Writer &W, const AnalysisCacheStats &S);
std::string analysisCacheStatsToJson(const AnalysisCacheStats &S);

/// A checked reference to a cached analysis: remembers the slot generation
/// at acquisition time, so consumers holding results across a mutation can
/// detect staleness instead of silently reading outdated structure. The
/// pointee stays alive (retire-don't-free) until AnalysisManager::clear(),
/// but get() refuses to hand it out once stale.
template <class T> class AnalysisHandle {
  const AnalysisManager *AM = nullptr;
  Function *F = nullptr;
  T *Ptr = nullptr;
  uint64_t Gen = 0;

  friend class AnalysisManager;
  AnalysisHandle(const AnalysisManager &AM, Function &F, T *Ptr, uint64_t Gen)
      : AM(&AM), F(&F), Ptr(Ptr), Gen(Gen) {}

public:
  AnalysisHandle() = default;

  bool valid() const { return Ptr != nullptr; }
  inline bool stale() const;

  /// The analysis, or null once it has been invalidated or rebuilt.
  T *get() const { return stale() ? nullptr : Ptr; }
  T &operator*() const {
    assert(!stale() && "dereferencing a stale analysis handle");
    return *Ptr;
  }
  T *operator->() const { return &operator*(); }
};

/// The cache itself. One instance per pipeline run (single-threaded, like
/// the pass manager); registers itself as an IRChangeListener for its
/// lifetime so IR edits on this thread invalidate the right entries.
class AnalysisManager final : public IRChangeListener {
public:
  /// \p M restricts listener-driven invalidation to functions of one
  /// module (null accepts any function — fine for single-module use).
  explicit AnalysisManager(Module *M = nullptr);
  ~AnalysisManager() override;

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// Returns the cached T for \p F, building it on a miss (or always, when
  /// caching is disabled). References stay valid until clear().
  template <class T> T &get(Function &F);

  /// Like get(), but wrapped in a staleness-checked handle.
  template <class T> AnalysisHandle<T> getHandle(Function &F);

  bool isCached(Function &F, AnalysisKind K) const;

  /// Generation counter of one slot: bumped on every build and every
  /// invalidation. Backs AnalysisHandle::stale().
  uint64_t generation(Function &F, AnalysisKind K) const;

  //===-- Execution profile (module-wide) ---------------------------------===
  /// Records a measured execution; block frequencies become available
  /// through executionProfile(). Counts one Profile build.
  void setExecution(
      const std::unordered_map<const BasicBlock *, uint64_t> &BlockCounts);
  bool hasExecutionProfile() const;
  /// The execution-derived frequencies. setExecution must have been
  /// called. Rebuilds from the recorded counts when caching is disabled
  /// or the Profile kind was invalidated.
  const ProfileInfo &executionProfile();

  //===-- Invalidation ----------------------------------------------------===
  /// Drops every analysis cached for \p F.
  void invalidate(Function &F);
  /// Drops \p K and, transitively, the analyses derived from it
  /// (Dominators -> Intervals -> StaticFrequency).
  void invalidate(Function &F, AnalysisKind K);
  /// Drops everything \p PA does not preserve (dependency-aware).
  void invalidate(Function &F, const PreservedAnalyses &PA);
  /// Empties the cache, the graveyard, and the execution profile.
  void clear();

  //===-- Canonical-shape flag --------------------------------------------===
  /// CFG canonicalisation marks functions whose CFG satisfies §4.1
  /// (preheaders exist, no critical interval edges); the IntervalTree
  /// build assigns promotion preheaders only then, because preheader
  /// assignment asserts canonical shape. The flag survives CFG edits made
  /// through CFGEdit (edge splitting cannot un-canonicalise: it only adds
  /// single-pred/single-succ blocks); clear() resets it.
  void markCanonical(Function &F) { Canonical[&F] = true; }
  bool isCanonical(Function &F) const {
    auto It = Canonical.find(&F);
    return It != Canonical.end() && It->second;
  }

  //===-- Accounting / knobs ----------------------------------------------===
  const AnalysisCacheStats &cacheStats() const { return Stats; }
  bool cachingEnabled() const { return CachingEnabled; }
  /// Force-disables reuse: every get() rebuilds. Used by the differential
  /// cache oracle; also set at construction when the environment variable
  /// SRP_DISABLE_ANALYSIS_CACHE is 1.
  void setCachingEnabled(bool Enabled) { CachingEnabled = Enabled; }

  // IRChangeListener: precise invalidation driven by CFGEdit/SSAUpdater.
  void cfgChanged(Function &F) override;
  void ssaEdited(Function &F) override;

private:
  struct Slot {
    void *Ptr = nullptr;
    void (*Destroy)(void *) = nullptr;
    uint64_t Gen = 0; ///< Bumped on build and on invalidation.
  };
  struct FunctionEntry {
    std::array<Slot, NumAnalysisKinds> Slots{};
  };

  Module *M = nullptr;
  bool CachingEnabled = true;
  std::unordered_map<Function *, FunctionEntry> Cache;
  std::unordered_map<const Function *, bool> Canonical;
  /// Retired (invalidated or superseded) instances; freed by clear().
  std::vector<Slot> Graveyard;

  /// Execution profile state: the recorded counts (rebuild source) and
  /// the built ProfileInfo. Defined out-of-line to keep ProfileInfo an
  /// incomplete type here.
  std::unordered_map<const BasicBlock *, uint64_t> ExecCounts;
  std::unique_ptr<ProfileInfo> ExecProfile;
  bool HaveExecution = false;
  uint64_t ProfileGen = 0;

  AnalysisCacheStats Stats;

  Slot &slot(Function &F, AnalysisKind K) {
    return Cache[&F].Slots[static_cast<unsigned>(K)];
  }
  const Slot *findSlot(const Function &F, AnalysisKind K) const;

  /// Moves a live slot's instance to the graveyard and bumps its
  /// generation; no-op for empty slots. Returns true if it was live.
  bool retire(Slot &S);
  /// Same retire-don't-free contract for the module-wide execution
  /// profile: references handed out by executionProfile() stay valid
  /// until clear().
  void retireExecProfile();
  void invalidateOne(Function &F, AnalysisKind K);
  void recordHit(AnalysisKind K);
  void recordMiss(AnalysisKind K);
  /// Feeds the analysis.build-micros histogram (out-of-line so the
  /// header-only get<T> template needs no static metric of its own).
  static void recordBuildTime(double Seconds);

  template <class T> static void destroyAs(void *P) {
    delete static_cast<T *>(P);
  }
};

//===----------------------------------------------------------------------===
// Same-layer trait specialisations.
//===----------------------------------------------------------------------===

template <> struct AnalysisTraits<DominatorTree> {
  static constexpr AnalysisKind Kind = AnalysisKind::Dominators;
  static std::unique_ptr<DominatorTree> build(Function &F, AnalysisManager &) {
    return std::make_unique<DominatorTree>(F);
  }
};

template <> struct AnalysisTraits<IntervalTree> {
  static constexpr AnalysisKind Kind = AnalysisKind::Intervals;
  static std::unique_ptr<IntervalTree> build(Function &F,
                                             AnalysisManager &AM) {
    auto IT = std::make_unique<IntervalTree>(F, AM.get<DominatorTree>(F));
    // Promotion preheaders are only well-defined on canonical CFGs; the
    // canonicalisation pass sets the flag, after which every rebuild
    // (e.g. following superblock tail splitting) re-assigns them.
    if (AM.isCanonical(F))
      IT->assignPreheaders(AM.get<DominatorTree>(F));
    return IT;
  }
};

//===----------------------------------------------------------------------===
// Template implementations.
//===----------------------------------------------------------------------===

template <class T> T &AnalysisManager::get(Function &F) {
  using Traits = AnalysisTraits<T>;
  {
    Slot &S = slot(F, Traits::Kind);
    if (S.Ptr) {
      if (CachingEnabled) {
        recordHit(Traits::Kind);
        return *static_cast<T *>(S.Ptr);
      }
      retire(S); // forced-miss mode: supersede, keep the old instance alive
    }
  }
  recordMiss(Traits::Kind);
  std::unique_ptr<T> Built;
  {
    TraceSpan Span;
    if (trace::enabled())
      Span.begin("analysis",
                 std::string("build:") + analysisKindName(Traits::Kind));
    const double T0 = monotonicSeconds();
    Built = Traits::build(F, *this); // may recurse into get()
    recordBuildTime(monotonicSeconds() - T0);
  }
  Slot &S = slot(F, Traits::Kind); // re-fetch: build() may have touched the map
  S.Ptr = Built.release();
  S.Destroy = &destroyAs<T>;
  ++S.Gen;
  return *static_cast<T *>(S.Ptr);
}

template <class T>
AnalysisHandle<T> AnalysisManager::getHandle(Function &F) {
  T &Result = get<T>(F);
  return AnalysisHandle<T>(*this, F, &Result,
                           generation(F, AnalysisTraits<T>::Kind));
}

template <class T> bool AnalysisHandle<T>::stale() const {
  if (!Ptr)
    return true;
  return AM->generation(*F, AnalysisTraits<T>::Kind) != Gen;
}

} // namespace srp

#endif // SRP_ANALYSIS_ANALYSISMANAGER_H
