//===- regalloc/Coloring.h - Interference graph coloring -------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-pressure measurement for Table 3: build the register
/// interference graph from liveness and report the number of colors a
/// Chaitin-style simplify/select coloring needs (greedy coloring in
/// degeneracy order), plus the peak number of simultaneously live values.
///
/// Interference walks each block backwards over a sparse set of live
/// values seeded from the block's live-out list: insert and erase are
/// O(1), the peak is the set's size, and a definition visits only the
/// values live across it. Adjacency lists are sorted and de-duplicated
/// once. Simplify pops a min-heap keyed on (degree, index) with lazy
/// deletion, so ties go to the lowest index; select marks taken colors
/// in a stamp array. Total cost O(I + E log V) time and O(V + E) space
/// for I instructions, V values and E interference edges (SSA
/// interference graphs are chordal, so E stays near the live ranges).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_REGALLOC_COLORING_H
#define SRP_REGALLOC_COLORING_H

#include <vector>

namespace srp {

class AnalysisManager;
class Function;
class Liveness;

struct PressureReport {
  unsigned NumValues = 0;     ///< Virtual registers considered.
  unsigned ColorsNeeded = 0;  ///< Colors used by simplify/select coloring.
  unsigned MaxLive = 0;       ///< Peak simultaneous liveness at block ends.
  unsigned Edges = 0;         ///< Interference edges.
};

/// Builds the interference graph of \p F and colors it.
PressureReport measureRegisterPressure(Function &F);

/// Same, over an already-computed liveness.
PressureReport measureRegisterPressure(Function &F, const Liveness &LV);

/// Cache-aware variant: liveness comes from \p AM (rebuilt only when an
/// IR edit since the last query invalidated it).
PressureReport measureRegisterPressure(Function &F, AnalysisManager &AM);

} // namespace srp

#endif // SRP_REGALLOC_COLORING_H
