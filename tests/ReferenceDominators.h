//===- tests/ReferenceDominators.h - Map-based dominator oracle -*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dominator tree as it was before it moved to flat arrays indexed by
/// reverse-postorder number: the same Cooper-Harvey-Kennedy algorithm over
/// pointer-keyed hash maps. Kept verbatim as the reference oracle of
/// DominatorDifferentialTest, which checks that the flat tree answers
/// every query identically (including child and frontier order). Only the
/// same-block case of instruction dominance differs from the original: it
/// walks the block instead of asking BasicBlock::comesBefore, whose order
/// numbers are under test too.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_TESTS_REFERENCEDOMINATORS_H
#define SRP_TESTS_REFERENCEDOMINATORS_H

#include "ir/Function.h"
#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

namespace srp::test {

class MapDominatorTree {
  Function *F = nullptr;
  std::vector<BasicBlock *> PostOrder;  ///< Blocks in postorder.
  std::vector<BasicBlock *> RPO;        ///< Blocks in reverse postorder.
  std::unordered_map<const BasicBlock *, unsigned> RPONum;
  std::unordered_map<const BasicBlock *, BasicBlock *> IDom;
  std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> Children;
  std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>> Frontier;
  // Preorder in/out numbering of the dominator tree for O(1) dominance
  // queries.
  std::unordered_map<const BasicBlock *, unsigned> DfsIn, DfsOut;

  void computePostOrder();
  void computeIDoms();
  void computeTreeNumbers();
  void computeFrontiers();

public:
  MapDominatorTree() = default;
  explicit MapDominatorTree(Function &Fn) { recompute(Fn); }

  /// (Re)builds all structures for \p Fn. Unreachable blocks are excluded;
  /// contains() reports reachability.
  void recompute(Function &Fn);

  Function *function() const { return F; }

  bool contains(const BasicBlock *BB) const { return IDom.count(BB) != 0; }

  /// Immediate dominator; null for the entry block.
  BasicBlock *idom(const BasicBlock *BB) const;

  const std::vector<BasicBlock *> &children(const BasicBlock *BB) const;

  /// True if \p A dominates \p B (reflexive).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;
  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Instruction-level dominance: true if \p A's definition is available at
  /// \p B (same block: A strictly precedes B; else block dominance).
  bool dominates(const Instruction *A, const Instruction *B) const;

  /// Nearest common dominator of \p A and \p B.
  BasicBlock *commonDominator(BasicBlock *A, BasicBlock *B) const;

  /// Dominance frontier of \p BB.
  const std::vector<BasicBlock *> &frontier(const BasicBlock *BB) const;

  /// Iterated dominance frontier of a set of blocks; the phi-placement set
  /// for definitions occurring in \p Defs. Deterministic order (RPO).
  std::vector<BasicBlock *>
  iteratedFrontier(const std::vector<BasicBlock *> &Defs) const;

  /// Blocks in reverse postorder (deterministic iteration order for passes).
  const std::vector<BasicBlock *> &rpo() const { return RPO; }
  unsigned rpoNumber(const BasicBlock *BB) const;
};

inline void MapDominatorTree::recompute(Function &Fn) {
  F = &Fn;
  PostOrder.clear();
  RPO.clear();
  RPONum.clear();
  IDom.clear();
  Children.clear();
  Frontier.clear();
  DfsIn.clear();
  DfsOut.clear();

  computePostOrder();
  computeIDoms();
  computeTreeNumbers();
  computeFrontiers();
}

inline void MapDominatorTree::computePostOrder() {
  // Iterative DFS from the entry block.
  std::unordered_map<const BasicBlock *, bool> Visited;
  struct Frame {
    BasicBlock *BB;
    std::vector<BasicBlock *> Succs;
    unsigned Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F->entry();
  Visited[Entry] = true;
  Stack.push_back({Entry, Entry->succs()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next == Top.Succs.size()) {
      PostOrder.push_back(Top.BB);
      Stack.pop_back();
      continue;
    }
    BasicBlock *S = Top.Succs[Top.Next++];
    if (!Visited[S]) {
      Visited[S] = true;
      Stack.push_back({S, S->succs()});
    }
  }
  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    RPONum[RPO[I]] = I;
}

inline void MapDominatorTree::computeIDoms() {
  // Cooper-Harvey-Kennedy: iterate intersect() over RPO until fixpoint.
  BasicBlock *Entry = F->entry();
  IDom[Entry] = Entry; // temporarily self, fixed up below

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (RPONum.at(A) > RPONum.at(B))
        A = IDom.at(A);
      while (RPONum.at(B) > RPONum.at(A))
        B = IDom.at(B);
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *P : BB->preds()) {
        if (!RPONum.count(P) || !IDom.count(P))
          continue; // unreachable or not yet processed
        NewIDom = NewIDom ? Intersect(NewIDom, P) : P;
      }
      assert(NewIDom && "reachable block with no processed predecessor");
      auto It = IDom.find(BB);
      if (It == IDom.end() || It->second != NewIDom) {
        IDom[BB] = NewIDom;
        Changed = true;
      }
    }
  }

  IDom[Entry] = nullptr;
  for (auto &[BB, Dom] : IDom)
    if (Dom)
      Children[Dom].push_back(const_cast<BasicBlock *>(BB));
  // Deterministic child order.
  for (auto &[BB, Kids] : Children)
    std::sort(Kids.begin(), Kids.end(),
              [&](BasicBlock *A, BasicBlock *B) {
                return RPONum.at(A) < RPONum.at(B);
              });
}

inline void MapDominatorTree::computeTreeNumbers() {
  unsigned Counter = 0;
  struct Frame {
    BasicBlock *BB;
    unsigned NextChild = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F->entry();
  DfsIn[Entry] = Counter++;
  Stack.push_back({Entry});
  static const std::vector<BasicBlock *> Empty;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    auto It = Children.find(Top.BB);
    const std::vector<BasicBlock *> &Kids =
        It == Children.end() ? Empty : It->second;
    if (Top.NextChild == Kids.size()) {
      DfsOut[Top.BB] = Counter++;
      Stack.pop_back();
      continue;
    }
    BasicBlock *Child = Kids[Top.NextChild++];
    DfsIn[Child] = Counter++;
    Stack.push_back({Child});
  }
}

inline void MapDominatorTree::computeFrontiers() {
  // Cooper-Harvey-Kennedy dominance frontier computation. Join blocks are
  // those with two or more reachable predecessors — plus the entry block
  // when it has any predecessor at all (un-canonicalised CFGs may loop
  // back to the entry, making it part of its own frontier).
  for (BasicBlock *BB : RPO) {
    unsigned ReachablePreds = 0;
    for (BasicBlock *P : BB->preds())
      if (contains(P))
        ++ReachablePreds;
    bool IsJoin = ReachablePreds >= 2 ||
                  (BB == F->entry() && ReachablePreds >= 1);
    if (!IsJoin)
      continue;
    for (BasicBlock *P : BB->preds()) {
      if (!contains(P))
        continue;
      BasicBlock *Runner = P;
      while (Runner && Runner != IDom.at(BB)) {
        Frontier[Runner].push_back(BB);
        Runner = IDom.at(Runner);
      }
    }
  }
  // Deduplicate while keeping deterministic order.
  for (auto &[BB, DF] : Frontier) {
    std::sort(DF.begin(), DF.end(), [&](BasicBlock *A, BasicBlock *B) {
      return RPONum.at(A) < RPONum.at(B);
    });
    DF.erase(std::unique(DF.begin(), DF.end()), DF.end());
  }
}

inline BasicBlock *MapDominatorTree::idom(const BasicBlock *BB) const {
  auto It = IDom.find(BB);
  assert(It != IDom.end() && "block not in dominator tree");
  return It->second;
}

inline const std::vector<BasicBlock *> &
MapDominatorTree::children(const BasicBlock *BB) const {
  static const std::vector<BasicBlock *> Empty;
  auto It = Children.find(BB);
  return It == Children.end() ? Empty : It->second;
}

inline bool MapDominatorTree::dominates(const BasicBlock *A,
                                        const BasicBlock *B) const {
  assert(contains(A) && contains(B) && "block not in dominator tree");
  return DfsIn.at(A) <= DfsIn.at(B) && DfsOut.at(B) <= DfsOut.at(A);
}

inline bool MapDominatorTree::strictlyDominates(const BasicBlock *A,
                                                const BasicBlock *B) const {
  return A != B && dominates(A, B);
}

inline bool MapDominatorTree::dominates(const Instruction *A,
                                        const Instruction *B) const {
  const BasicBlock *ABB = A->parent(), *BBB = B->parent();
  if (ABB != BBB)
    return strictlyDominates(ABB, BBB);
  // Same block: walk it rather than ask BasicBlock::comesBefore, so the
  // oracle does not share the order numbers under test.
  for (const auto &I : *ABB) {
    if (I.get() == B)
      return false;
    if (I.get() == A)
      return true;
  }
  return false;
}

inline BasicBlock *MapDominatorTree::commonDominator(BasicBlock *A,
                                                     BasicBlock *B) const {
  assert(contains(A) && contains(B) && "block not in dominator tree");
  while (A != B) {
    if (RPONum.at(A) > RPONum.at(B))
      A = idom(A);
    else
      B = idom(B);
  }
  return A;
}

inline const std::vector<BasicBlock *> &
MapDominatorTree::frontier(const BasicBlock *BB) const {
  static const std::vector<BasicBlock *> Empty;
  auto It = Frontier.find(BB);
  return It == Frontier.end() ? Empty : It->second;
}

inline std::vector<BasicBlock *> MapDominatorTree::iteratedFrontier(
    const std::vector<BasicBlock *> &Defs) const {
  std::vector<BasicBlock *> Result;
  std::unordered_map<const BasicBlock *, bool> InResult;
  std::vector<BasicBlock *> Work;
  std::unordered_map<const BasicBlock *, bool> Queued;
  for (BasicBlock *BB : Defs) {
    if (!contains(BB) || Queued[BB])
      continue;
    Queued[BB] = true;
    Work.push_back(BB);
  }
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *DF : frontier(BB)) {
      if (InResult[DF])
        continue;
      InResult[DF] = true;
      Result.push_back(DF);
      if (!Queued[DF]) {
        Queued[DF] = true;
        Work.push_back(DF);
      }
    }
  }
  std::sort(Result.begin(), Result.end(),
            [&](BasicBlock *A, BasicBlock *B) {
              return RPONum.at(A) < RPONum.at(B);
            });
  return Result;
}

inline unsigned MapDominatorTree::rpoNumber(const BasicBlock *BB) const {
  auto It = RPONum.find(BB);
  assert(It != RPONum.end() && "block not reachable");
  return It->second;
}

} // namespace srp::test

#endif // SRP_TESTS_REFERENCEDOMINATORS_H
