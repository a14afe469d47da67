//===- regalloc/Liveness.h - Register liveness analysis --------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over register values (instruction results, arguments)
/// by SSA path exploration. Phi operands are used at the end of their
/// incoming blocks, the standard SSA convention. For each value, in index
/// order, every use walks predecessors back to the value's defining block,
/// stamping the blocks it enters live-in and their predecessors live-out.
/// The result is the least fixpoint of the usual dataflow equations
/// (arguments are defined by no block; loops and unreachable blocks
/// included), at O(instructions + blocks + total live-in/live-out entries)
/// time and space: a block is entered at most once per value live in it.
/// Per-block sets are sorted lists of value indices. Feeds the interference
/// graph for the register-pressure measurements of Table 3.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_REGALLOC_LIVENESS_H
#define SRP_REGALLOC_LIVENESS_H

#include "analysis/AnalysisManager.h"
#include <memory>
#include <unordered_map>
#include <vector>

namespace srp {

class BasicBlock;
class Function;
class Value;

class Liveness {
  std::vector<Value *> Values; ///< Dense numbering of register values.
  std::unordered_map<const Value *, unsigned> IndexOf;
  std::unordered_map<const BasicBlock *, unsigned> BlockIndex;
  /// Per block (BlockIndex order): value indices, ascending.
  std::vector<std::vector<unsigned>> LiveInSet, LiveOutSet;

public:
  explicit Liveness(Function &F) { recompute(F); }

  void recompute(Function &F);

  unsigned numValues() const { return static_cast<unsigned>(Values.size()); }
  const std::vector<Value *> &values() const { return Values; }
  bool tracks(const Value *V) const { return IndexOf.count(V) != 0; }
  unsigned indexOf(const Value *V) const { return IndexOf.at(V); }

  /// Indices of the values live on entry to / exit from \p BB, ascending.
  const std::vector<unsigned> &liveIn(const BasicBlock *BB) const {
    return LiveInSet[BlockIndex.at(BB)];
  }
  const std::vector<unsigned> &liveOut(const BasicBlock *BB) const {
    return LiveOutSet[BlockIndex.at(BB)];
  }
};

template <> struct AnalysisTraits<Liveness> {
  static constexpr AnalysisKind Kind = AnalysisKind::Liveness;
  static std::unique_ptr<Liveness> build(Function &F, AnalysisManager &) {
    return std::make_unique<Liveness>(F);
  }
};

} // namespace srp

#endif // SRP_REGALLOC_LIVENESS_H
