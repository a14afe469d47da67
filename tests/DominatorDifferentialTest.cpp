//===- tests/DominatorDifferentialTest.cpp - flat vs map dominators -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of DominatorTree against the map-based tree it
/// replaced (tests/ReferenceDominators.h). On random raw CFGs (unreachable
/// blocks, self-loops, an entry with predecessors) and on every function
/// of the 20 golden-corpus programs in all six promotion modes, both trees
/// must agree on: rpo order and numbers, reachability, idom, children
/// order, frontier order, iteratedFrontier, commonDominator and dominates
/// for every pair of reachable blocks, and instruction-level dominance.
/// One DominatorTree object is recomputed across all functions of a run,
/// so stale state from an earlier function would show up too.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "pipeline/Pipeline.h"
#include "ReferenceDominators.h"
#include "TestHelpers.h"
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace srp;
using namespace srp::test;

namespace {

#ifndef SRP_CORPUS_DIR
#error "SRP_CORPUS_DIR must point at tests/corpus"
#endif

std::string names(const std::vector<BasicBlock *> &Blocks) {
  std::string Out;
  for (BasicBlock *BB : Blocks)
    Out += (Out.empty() ? "" : " ") + BB->name();
  return Out;
}

/// Recomputes \p DT on \p F and compares it with a fresh reference tree,
/// adding the number of block pairs compared to \p Pairs.
void expectSameTree(Function &F, DominatorTree &DT, const std::string &What,
                    size_t &Pairs) {
  DT.recompute(F);
  MapDominatorTree Ref(F);
  EXPECT_EQ(DT.function(), &F) << What;
  EXPECT_EQ(names(DT.rpo()), names(Ref.rpo())) << What << ": rpo";
  if (DT.rpo() != Ref.rpo())
    return;

  const std::vector<BasicBlock *> Blocks = F.blocks();
  for (BasicBlock *BB : Blocks) {
    ASSERT_EQ(DT.contains(BB), Ref.contains(BB)) << What << " " << BB->name();
    if (!Ref.contains(BB))
      continue;
    std::string At = What + " " + BB->name();
    EXPECT_EQ(DT.rpoNumber(BB), Ref.rpoNumber(BB)) << At;
    EXPECT_EQ(DT.idom(BB), Ref.idom(BB)) << At << ": idom";
    EXPECT_EQ(names(DT.children(BB)), names(Ref.children(BB)))
        << At << ": children";
    EXPECT_EQ(names(DT.frontier(BB)), names(Ref.frontier(BB)))
        << At << ": frontier";
    EXPECT_EQ(names(DT.iteratedFrontier({BB})),
              names(Ref.iteratedFrontier({BB})))
        << At << ": iterated frontier";
  }

  const std::vector<BasicBlock *> &RPO = Ref.rpo();
  for (BasicBlock *A : RPO)
    for (BasicBlock *B : RPO) {
      ++Pairs;
      ASSERT_EQ(DT.dominates(A, B), Ref.dominates(A, B))
          << What << ": dominates(" << A->name() << ", " << B->name() << ")";
      ASSERT_EQ(DT.strictlyDominates(A, B), Ref.strictlyDominates(A, B))
          << What << ": strictlyDominates(" << A->name() << ", "
          << B->name() << ")";
      ASSERT_EQ(DT.commonDominator(A, B), Ref.commonDominator(A, B))
          << What << ": commonDominator(" << A->name() << ", " << B->name()
          << ")";
    }

  // Multi-block definition sets, unreachable blocks and duplicates
  // included: every prefix of the layout order, and every other block.
  std::vector<BasicBlock *> Defs, Alternate;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    Defs.push_back(Blocks[I]);
    if (I % 2)
      Alternate.push_back(Blocks[I]);
    EXPECT_EQ(names(DT.iteratedFrontier(Defs)),
              names(Ref.iteratedFrontier(Defs)))
        << What << ": iterated frontier of the first " << I + 1 << " blocks";
  }
  Alternate.insert(Alternate.end(), Defs.begin(), Defs.end());
  EXPECT_EQ(names(DT.iteratedFrontier(Alternate)),
            names(Ref.iteratedFrontier(Alternate)))
      << What << ": iterated frontier with duplicates";

  // Instruction dominance: every pair within a block, and the first and
  // last instruction of each reachable block against every other's.
  std::vector<Instruction *> Ends;
  for (BasicBlock *BB : RPO) {
    if (BB->empty())
      continue;
    for (auto &A : *BB)
      for (auto &B : *BB)
        ASSERT_EQ(DT.dominates(A.get(), B.get()),
                  Ref.dominates(A.get(), B.get()))
            << What << ": instruction dominance in " << BB->name();
    Ends.push_back(BB->front());
    Ends.push_back(BB->back());
  }
  for (Instruction *A : Ends)
    for (Instruction *B : Ends)
      ASSERT_EQ(DT.dominates(A, B), Ref.dominates(A, B))
          << What << ": instruction dominance " << A->parent()->name()
          << " -> " << B->parent()->name();
}

void expectModuleSameTree(Module &M, DominatorTree &DT,
                          const std::string &What, size_t &Pairs) {
  for (const auto &F : M.functions())
    if (!F->empty())
      expectSameTree(*F, DT, What + "/" + F->name(), Pairs);
}

TEST(DominatorDifferentialTest, RandomCFGsMatchMapTree) {
  DominatorTree DT;
  size_t Pairs = 0;
  unsigned EntryWithPreds = 0, Unreachable = 0, SelfLoops = 0;
  for (uint64_t Seed = 1; Seed <= 120; ++Seed)
    for (unsigned N : {1u, 2u, 3u, 5u, 12u, 40u, 90u}) {
      auto M = randomCFG(Seed * 7919 + N, N);
      Function &F = *M->getFunction("f");
      expectSameTree(F, DT,
                     "seed " + std::to_string(Seed) + " n=" + std::to_string(N),
                     Pairs);
      if (HasFatalFailure())
        return;
      EntryWithPreds += !F.entry()->preds().empty();
      for (BasicBlock *BB : F.blocks()) {
        Unreachable += !DT.contains(BB);
        for (BasicBlock *S : BB->succs())
          SelfLoops += S == BB;
      }
    }
  EXPECT_GT(Pairs, 0u);
  // The sample must exercise the shapes the tree has to tolerate.
  EXPECT_GT(EntryWithPreds, 0u);
  EXPECT_GT(Unreachable, 0u);
  EXPECT_GT(SelfLoops, 0u);
}

TEST(DominatorDifferentialTest, RecomputeAfterEditsMatchesMapTree) {
  // The same tree object follows a function through edits that add
  // blocks, retarget edges and make blocks unreachable.
  DominatorTree DT;
  size_t Pairs = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    auto M = randomCFG(Seed * 104729, 24);
    Function &F = *M->getFunction("f");
    RNG Rand(Seed);
    for (unsigned Step = 0; Step != 6; ++Step) {
      expectSameTree(F, DT,
                     "seed " + std::to_string(Seed) + " step " +
                         std::to_string(Step),
                     Pairs);
      if (HasFatalFailure())
        return;
      std::vector<BasicBlock *> Blocks = F.blocks();
      BasicBlock *From = Blocks[Rand.below(Blocks.size())];
      BasicBlock *To = Blocks[Rand.below(Blocks.size())];
      for (BasicBlock *S : From->succs())
        S->removePred(From);
      From->erase(From->terminator());
      IRBuilder B(From);
      if (Rand.below(2)) {
        BasicBlock *Fresh = F.createBlock();
        B.condBr(M->constant(1), To, Fresh);
        B.setInsertPoint(Fresh);
        B.br(Blocks[Rand.below(Blocks.size())]);
      } else {
        B.br(To);
      }
    }
  }
  EXPECT_GT(Pairs, 0u);
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(DominatorDifferentialTest, GoldenCorpusMatchesMapTree) {
  std::ifstream Manifest(std::string(SRP_CORPUS_DIR) + "/expected.txt");
  std::string Line;
  unsigned Programs = 0;
  size_t Pairs = 0;
  DominatorTree DT;
  while (std::getline(Manifest, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string File = Line.substr(0, Line.find('\t'));
    std::string Source = readText(std::string(SRP_CORPUS_DIR) + "/" + File);
    ASSERT_FALSE(Source.empty()) << "cannot read corpus entry " << File;
    if (auto M = compileOrDie(Source))
      expectModuleSameTree(*M, DT, File + "/frontend", Pairs);
    for (PromotionMode Mode : allPromotionModes()) {
      PipelineResult R =
          PipelineBuilder().mode(Mode).measurePressure(false).run(Source);
      EXPECT_TRUE(R.Ok) << File << " " << promotionModeName(Mode);
      if (R.M)
        expectModuleSameTree(*R.M, DT, File + "/" + promotionModeName(Mode),
                             Pairs);
      if (HasFatalFailure())
        return;
    }
    ++Programs;
  }
  EXPECT_EQ(Programs, 20u);
  EXPECT_GT(Pairs, 0u);
}

} // namespace
