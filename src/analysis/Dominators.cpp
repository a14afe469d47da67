//===- analysis/Dominators.cpp - Dominator tree and frontiers ------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/Function.h"
#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace srp;

void DominatorTree::recompute(Function &Fn) {
  F = &Fn;
  computeRPO();
  computePreds();
  computeIDoms();
  computeTreeNumbers();
  computeFrontiers();
}

void DominatorTree::computeRPO() {
  // Iterative DFS from the entry block. RPONum doubles as the visited set;
  // its values are fixed up once the postorder is known.
  RPO.clear();
  RPO.reserve(F->size());
  RPONum.clear();
  RPONum.reserve(F->size());
  struct Frame {
    BasicBlock *BB;
    const Instruction *Term; ///< null: no terminator, no successors
    unsigned Next = 0;
  };
  std::vector<Frame> Stack;
  BasicBlock *Entry = F->entry();
  RPONum.emplace(Entry, 0);
  Stack.push_back({Entry, Entry->terminator()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (!Top.Term || Top.Next == Top.Term->numSuccessors()) {
      RPO.push_back(Top.BB); // postorder for now
      Stack.pop_back();
      continue;
    }
    BasicBlock *S = Top.Term->successor(Top.Next++);
    if (RPONum.emplace(S, 0).second)
      Stack.push_back({S, S->terminator()});
  }
  std::reverse(RPO.begin(), RPO.end());
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    RPONum[RPO[I]] = I;
}

void DominatorTree::computePreds() {
  const unsigned N = static_cast<unsigned>(RPO.size());
  PredBegin.assign(N + 1, 0);
  PredNums.clear();
  for (unsigned I = 0; I != N; ++I) {
    PredBegin[I] = static_cast<unsigned>(PredNums.size());
    for (BasicBlock *P : RPO[I]->preds()) {
      if (auto It = RPONum.find(P); It != RPONum.end()) // reachable only
        PredNums.push_back(It->second);
    }
  }
  PredBegin[N] = static_cast<unsigned>(PredNums.size());
}

unsigned DominatorTree::numberOf(const BasicBlock *BB) const {
  auto It = RPONum.find(BB);
  assert(It != RPONum.end() && "block not in dominator tree");
  return It->second;
}

void DominatorTree::computeIDoms() {
  // Cooper-Harvey-Kennedy: iterate intersect() over RPO until fixpoint.
  // RPO numbers make "further from the entry" a plain comparison.
  const unsigned N = static_cast<unsigned>(RPO.size());
  constexpr unsigned Unprocessed = NoIDom;
  IDom.assign(N, Unprocessed);
  IDom[0] = 0; // temporarily self, fixed up below

  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned BB = 1; BB != N; ++BB) {
      unsigned NewIDom = Unprocessed;
      for (unsigned K = PredBegin[BB]; K != PredBegin[BB + 1]; ++K) {
        unsigned P = PredNums[K];
        if (IDom[P] == Unprocessed)
          continue; // not yet processed
        NewIDom = NewIDom == Unprocessed ? P : Intersect(NewIDom, P);
      }
      assert(NewIDom != Unprocessed &&
             "reachable block with no processed predecessor");
      if (IDom[BB] != NewIDom) {
        IDom[BB] = NewIDom;
        Changed = true;
      }
    }
  }
  IDom[0] = NoIDom;

  // Visiting blocks in RPO leaves every child list sorted by RPO number.
  Children.resize(N);
  for (auto &Kids : Children)
    Kids.clear();
  for (unsigned BB = 1; BB != N; ++BB)
    Children[IDom[BB]].push_back(RPO[BB]);
}

void DominatorTree::computeTreeNumbers() {
  // An idom has a smaller RPO number than the blocks it dominates, so one
  // backward sweep sums subtree sizes and one forward sweep hands every
  // child a preorder slot right after its parent's earlier children.
  const unsigned N = static_cast<unsigned>(RPO.size());
  SubtreeSize.assign(N, 1);
  for (unsigned BB = N; BB-- > 1;)
    SubtreeSize[IDom[BB]] += SubtreeSize[BB];
  Preorder.assign(N, 0);
  std::vector<unsigned> NextSlot(N);
  NextSlot[0] = 1;
  for (unsigned BB = 1; BB != N; ++BB) {
    Preorder[BB] = NextSlot[IDom[BB]];
    NextSlot[IDom[BB]] += SubtreeSize[BB];
    NextSlot[BB] = Preorder[BB] + 1;
  }
}

void DominatorTree::computeFrontiers() {
  // Cooper-Harvey-Kennedy dominance frontier computation. Join blocks are
  // those with two or more reachable predecessors — plus the entry block
  // when it has any predecessor at all (un-canonicalised CFGs may loop
  // back to the entry, making it part of its own frontier). Joins are
  // visited in RPO, so each frontier list grows in RPO order and a
  // duplicate can only repeat its last element.
  const unsigned N = static_cast<unsigned>(RPO.size());
  Frontier.resize(N);
  for (auto &DF : Frontier)
    DF.clear();
  for (unsigned BB = 0; BB != N; ++BB) {
    unsigned ReachablePreds = PredBegin[BB + 1] - PredBegin[BB];
    bool IsJoin = ReachablePreds >= 2 || (BB == 0 && ReachablePreds >= 1);
    if (!IsJoin)
      continue;
    for (unsigned K = PredBegin[BB]; K != PredBegin[BB + 1]; ++K)
      for (unsigned Runner = PredNums[K]; Runner != NoIDom &&
                                          Runner != IDom[BB];
           Runner = IDom[Runner]) {
        std::vector<BasicBlock *> &DF = Frontier[Runner];
        if (DF.empty() || DF.back() != RPO[BB])
          DF.push_back(RPO[BB]);
      }
  }
}

BasicBlock *DominatorTree::idom(const BasicBlock *BB) const {
  unsigned D = IDom[numberOf(BB)];
  return D == NoIDom ? nullptr : RPO[D];
}

const std::vector<BasicBlock *> &
DominatorTree::children(const BasicBlock *BB) const {
  static const std::vector<BasicBlock *> Empty;
  auto It = RPONum.find(BB);
  return It != RPONum.end() ? Children[It->second] : Empty;
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  unsigned NA = numberOf(A), NB = numberOf(B);
  return Preorder[NA] <= Preorder[NB] &&
         Preorder[NB] < Preorder[NA] + SubtreeSize[NA];
}

bool DominatorTree::strictlyDominates(const BasicBlock *A,
                                      const BasicBlock *B) const {
  return A != B && dominates(A, B);
}

bool DominatorTree::dominates(const Instruction *A,
                              const Instruction *B) const {
  const BasicBlock *ABB = A->parent(), *BBB = B->parent();
  if (ABB == BBB)
    return ABB->comesBefore(A, B);
  return strictlyDominates(ABB, BBB);
}

BasicBlock *DominatorTree::commonDominator(BasicBlock *A,
                                           BasicBlock *B) const {
  unsigned NA = numberOf(A), NB = numberOf(B);
  while (NA != NB) {
    if (NA > NB)
      NA = IDom[NA];
    else
      NB = IDom[NB];
  }
  return RPO[NA];
}

const std::vector<BasicBlock *> &
DominatorTree::frontier(const BasicBlock *BB) const {
  static const std::vector<BasicBlock *> Empty;
  auto It = RPONum.find(BB);
  return It != RPONum.end() ? Frontier[It->second] : Empty;
}

std::vector<BasicBlock *> DominatorTree::iteratedFrontier(
    const std::vector<BasicBlock *> &Defs) const {
  const unsigned N = static_cast<unsigned>(RPO.size());
  enum : uint8_t { Queued = 1, InResult = 2 };
  std::vector<uint8_t> State(N, 0);
  std::vector<unsigned> Work;
  for (BasicBlock *BB : Defs) {
    auto It = RPONum.find(BB);
    if (It == RPONum.end() || (State[It->second] & Queued))
      continue;
    State[It->second] |= Queued;
    Work.push_back(It->second);
  }
  std::vector<unsigned> Result;
  while (!Work.empty()) {
    unsigned BB = Work.back();
    Work.pop_back();
    for (BasicBlock *DFBlock : Frontier[BB]) {
      unsigned DF = numberOf(DFBlock);
      if (State[DF] & InResult)
        continue;
      State[DF] |= InResult;
      Result.push_back(DF);
      if (!(State[DF] & Queued)) {
        State[DF] |= Queued;
        Work.push_back(DF);
      }
    }
  }
  std::sort(Result.begin(), Result.end());
  std::vector<BasicBlock *> Blocks;
  Blocks.reserve(Result.size());
  for (unsigned DF : Result)
    Blocks.push_back(RPO[DF]);
  return Blocks;
}

unsigned DominatorTree::rpoNumber(const BasicBlock *BB) const {
  return numberOf(BB);
}
