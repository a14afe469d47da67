//===- analysis/Dominators.h - Dominator tree and frontiers ----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm), dominance
/// frontiers [CFR+91], and iterated dominance frontiers for multi-definition
/// phi placement (the role [SrG95] plays in the paper: one IDF computation
/// for a whole set of definition blocks, §4.5).
///
/// Storage: every reachable block gets its reverse-postorder number, and
/// one hash map (block -> number) is the only pointer-keyed structure.
/// Everything else is a vector indexed by that number: the RPO itself, the
/// immediate dominator (as a number), the children and frontier lists,
/// the preorder numbers and subtree sizes of the tree, and the
/// reachable-predecessor lists the construction iterates over. A query
/// costs one map lookup per block argument; the CHK intersection, the
/// frontier walk and the tree numbering run on numbers only. Children and
/// frontier lists come out sorted by RPO number because they are filled
/// while visiting blocks in RPO, so no sort is needed.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_DOMINATORS_H
#define SRP_ANALYSIS_DOMINATORS_H

#include <unordered_map>
#include <vector>

namespace srp {

class BasicBlock;
class Function;
class Instruction;

class DominatorTree {
  /// IDom value of the entry block (and the end of every idom chain).
  static constexpr unsigned NoIDom = ~0u;

  Function *F = nullptr;
  std::vector<BasicBlock *> RPO; ///< Blocks in reverse postorder.
  /// block -> RPO number
  std::unordered_map<const BasicBlock *, unsigned> RPONum;
  // The rest is indexed by RPO number.
  std::vector<unsigned> IDom;
  std::vector<std::vector<BasicBlock *>> Children;
  std::vector<std::vector<BasicBlock *>> Frontier;
  /// Reachable predecessors of block N (duplicates kept):
  /// PredNums[PredBegin[N] .. PredBegin[N + 1]).
  std::vector<unsigned> PredBegin, PredNums;
  /// Preorder number and subtree size in the dominator tree: A dominates
  /// B iff B's preorder number falls in A's subtree range (O(1) queries).
  std::vector<unsigned> Preorder, SubtreeSize;

  void computeRPO();
  void computePreds();
  void computeIDoms();
  void computeTreeNumbers();
  void computeFrontiers();
  /// RPO number of a block that must be in the tree.
  unsigned numberOf(const BasicBlock *BB) const;

public:
  DominatorTree() = default;
  explicit DominatorTree(Function &Fn) { recompute(Fn); }

  /// (Re)builds all structures for \p Fn. Unreachable blocks are excluded;
  /// contains() reports reachability.
  void recompute(Function &Fn);

  Function *function() const { return F; }

  bool contains(const BasicBlock *BB) const {
    return RPONum.count(BB) != 0;
  }

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

} // namespace srp

#endif // SRP_ANALYSIS_DOMINATORS_H
