//===- regalloc/Coloring.cpp - Interference graph coloring ---------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"
#include "ir/Function.h"
#include "regalloc/Liveness.h"
#include "support/Statistics.h"
#include <algorithm>
#include <functional>
#include <utility>

using namespace srp;

namespace {
SRP_STATISTIC(NumFunctionsColored, "coloring", "functions-colored",
              "Functions whose interference graph was colored");
SRP_STATISTIC(NumEdges, "coloring", "interference-edges",
              "Interference edges built across all colorings");
SRP_STATISTIC(MaxPressure, "coloring", "max-pressure",
              "Peak simultaneous liveness seen in any function");
SRP_STATISTIC(MaxColors, "coloring", "max-colors-needed",
              "Most colors any function's coloring required");

/// Set of value indices with O(1) insert, erase and membership whose
/// iteration visits only the members (the Briggs-Torczon sparse set).
class SparseSet {
  std::vector<unsigned> Members, Pos;

public:
  explicit SparseSet(unsigned Universe) : Pos(Universe, 0) {}

  bool contains(unsigned V) const {
    return Pos[V] < Members.size() && Members[Pos[V]] == V;
  }
  void insert(unsigned V) {
    if (contains(V))
      return;
    Pos[V] = static_cast<unsigned>(Members.size());
    Members.push_back(V);
  }
  void erase(unsigned V) {
    if (!contains(V))
      return;
    unsigned Last = Members.back();
    Members[Pos[V]] = Last;
    Pos[Last] = Pos[V];
    Members.pop_back();
  }
  void clear() { Members.clear(); }
  unsigned size() const { return static_cast<unsigned>(Members.size()); }
  const std::vector<unsigned> &members() const { return Members; }
};
} // namespace

PressureReport srp::measureRegisterPressure(Function &F) {
  Liveness LV(F);
  return measureRegisterPressure(F, LV);
}

PressureReport srp::measureRegisterPressure(Function &F,
                                            AnalysisManager &AM) {
  return measureRegisterPressure(F, AM.get<Liveness>(F));
}

PressureReport srp::measureRegisterPressure(Function &F,
                                            const Liveness &LV) {
  PressureReport R;
  ++NumFunctionsColored;
  unsigned N = LV.numValues();
  R.NumValues = N;
  if (N == 0)
    return R;

  // Interference: walk each block backwards from its live-out set; a
  // definition interferes with everything live across it. Adjacency lists
  // may hold a pair twice until they are sorted and de-duplicated below.
  std::vector<std::vector<unsigned>> Adj(N);
  SparseSet Live(N);
  for (BasicBlock *BB : F.blocks()) {
    Live.clear();
    for (unsigned V : LV.liveOut(BB))
      Live.insert(V);
    R.MaxLive = std::max(R.MaxLive, Live.size());

    // Instructions back to front.
    for (auto It = BB->end(); It != BB->begin();) {
      Instruction *I = (--It)->get();
      if (I->type() != Type::Void) {
        unsigned D = LV.indexOf(I);
        for (unsigned V : Live.members())
          if (V != D) {
            Adj[D].push_back(V);
            Adj[V].push_back(D);
          }
        Live.erase(D);
      }
      // Phi operands are used at predecessor ends; nothing to add here.
      if (!isa<PhiInst>(I))
        for (Value *Op : I->operands())
          if (LV.tracks(Op))
            Live.insert(LV.indexOf(Op));
      R.MaxLive = std::max(R.MaxLive, Live.size());
    }
  }
  unsigned AdjEntries = 0;
  for (std::vector<unsigned> &A : Adj) {
    std::sort(A.begin(), A.end());
    A.erase(std::unique(A.begin(), A.end()), A.end());
    AdjEntries += static_cast<unsigned>(A.size());
  }
  R.Edges = AdjEntries / 2;

  // Simplify: repeatedly remove a minimum-degree node (Chaitin's stack),
  // lowest index first among equal degrees, then select colors greedily in
  // reverse removal order. The min-heap is keyed on (degree, index) with
  // lazy deletion: degrees only fall, so a node's current entry pops
  // before its stale ones, which find the node already removed.
  using Entry = std::pair<unsigned, unsigned>;
  std::vector<unsigned> Degree(N);
  std::vector<Entry> Heap(N);
  for (unsigned I = 0; I != N; ++I) {
    Degree[I] = static_cast<unsigned>(Adj[I].size());
    Heap[I] = {Degree[I], I};
  }
  std::make_heap(Heap.begin(), Heap.end(), std::greater<Entry>());
  std::vector<bool> Removed(N, false);
  std::vector<unsigned> Stack;
  Stack.reserve(N);
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), std::greater<Entry>());
    unsigned Best = Heap.back().second;
    Heap.pop_back();
    if (Removed[Best])
      continue;
    Removed[Best] = true;
    Stack.push_back(Best);
    for (unsigned Nb : Adj[Best])
      if (!Removed[Nb]) {
        Heap.emplace_back(--Degree[Nb], Nb);
        std::push_heap(Heap.begin(), Heap.end(), std::greater<Entry>());
      }
  }

  // A color C is taken for V when TakenBy[C] == V + 1; a node's color is
  // at most its degree, so N stamps suffice.
  std::vector<int> Color(N, -1);
  std::vector<unsigned> TakenBy(N, 0);
  unsigned MaxColor = 0;
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    unsigned V = *It;
    for (unsigned Nb : Adj[V])
      if (Color[Nb] >= 0)
        TakenBy[Color[Nb]] = V + 1;
    int C = 0;
    while (TakenBy[C] == V + 1)
      ++C;
    Color[V] = C;
    MaxColor = std::max(MaxColor, static_cast<unsigned>(C) + 1);
  }
  R.ColorsNeeded = MaxColor;
  NumEdges += R.Edges;
  MaxPressure.updateMax(R.MaxLive);
  MaxColors.updateMax(R.ColorsNeeded);
  return R;
}
