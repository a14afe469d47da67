//===- tests/DiagnosticsGoldenTest.cpp - Byte goldens for runChecks -------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact diagnostics runChecks reports on broken IR: every
/// corruption the MutationTest suite applies, plus functions that break
/// several checks in several blocks, so the order of diagnostics across
/// checks, blocks and functions is fixed too. Each case is rebuilt from
/// scratch for three runs (Fast and Full with an AnalysisManager, Full
/// without one) and each run's checks_run count, toText lines and
/// diagnosticsToJson document are compared with
/// tests/golden/diagnostics/<case>.txt byte for byte.
///
/// Regenerate after an intentional change to a check with:
///   SRP_UPDATE_GOLDEN=1 ./srp_tests --gtest_filter='*DiagnosticsGolden*'
/// which rewrites the files and fails the run so the diff gets reviewed.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/CFGCanonicalize.h"
#include "analysis/Intervals.h"
#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ssa/MemorySSA.h"
#include <gtest/gtest.h>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

using namespace srp;

namespace {

std::string readText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One broken program: how to build it, what to prepare before breaking
/// it (canonical CFG, memory SSA), and the corruption itself.
struct GoldenCase {
  const char *Name;
  std::function<std::unique_ptr<Module>()> Build;
  bool Canonical;
  bool MemSSA;
  std::function<void(Module &, AnalysisManager &)> Mutate;
};

std::unique_ptr<Module> fromMiniC(const char *Src) {
  std::vector<std::string> Errors;
  auto M = compileMiniC(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
  return M;
}

const char *const LoopProgram = R"(int g = 0;
int main() {
  int i;
  i = 0;
  while (i < 3) { g = g + 1; i = i + 1; }
  return g;
})";

/// Two loops, a diamond and two globals: enough blocks, joins, memory
/// phis and interval exits for several checks to fire in several blocks.
const char *const WideProgram = R"(int g = 0;
int h = 0;
int main() {
  int i;
  int j;
  int s;
  i = 0;
  s = 0;
  while (i < 4) {
    if (i < 2) { g = g + i; } else { h = h + s; }
    s = s + g;
    i = i + 1;
  }
  j = 0;
  while (j < 3) { h = h + j; j = j + 1; }
  print(s);
  return g + h;
})";

/// First instruction of \p F satisfying \p Pred, skipping the first
/// \p Skip blocks that hold one (so repeated corruptions land in
/// different blocks).
Instruction *findInst(Function &F, unsigned Skip,
                      const std::function<bool(Instruction &)> &Pred) {
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB)
      if (Pred(*I)) {
        if (Skip == 0)
          return I.get();
        --Skip;
        break;
      }
  return nullptr;
}

std::set<const BasicBlock *> preheaders(Function &F, AnalysisManager &AM) {
  std::set<const BasicBlock *> PHs;
  for (Interval *Iv : AM.get<IntervalTree>(F).postorder())
    if (Iv->preheader())
      PHs.insert(Iv->preheader());
  return PHs;
}

/// L0: the corruptions the CFG layer catches, spread over two functions
/// and several blocks. Built by hand: the frontend cannot produce them.
std::unique_ptr<Module> brokenCFG() {
  auto M = std::make_unique<Module>("broken-cfg");
  Function *Other = M->createFunction("other", Type::Void);
  BasicBlock *O0 = Other->createBlock("o0");
  IRBuilder B(O0);
  B.ret();

  Function *F = M->createFunction("f", Type::Int);
  std::vector<BasicBlock *> Bs;
  for (unsigned I = 0; I != 7; ++I)
    Bs.push_back(F->createBlock("b" + std::to_string(I)));
  B.setInsertPoint(Bs[0]);
  Value *X = B.add(M->constant(1), M->constant(2));
  B.condBr(X, Bs[1], Bs[2]);
  B.setInsertPoint(Bs[1]); // no terminator
  B.add(X, X);
  B.setInsertPoint(Bs[2]); // terminator in the middle, two terminators
  B.ret(X);
  B.add(X, M->constant(1));
  B.br(Bs[3]);
  B.setInsertPoint(Bs[3]); // targets another function's block
  B.condBr(X, Bs[4], O0);
  B.setInsertPoint(Bs[4]); // null target
  Bs[4]->append(std::make_unique<BrInst>(nullptr));
  B.setInsertPoint(Bs[5]); // loops back to the entry
  B.br(Bs[0]);
  B.setInsertPoint(Bs[6]); // an empty block, and a pred edge nobody has
  Bs[3]->addPred(Bs[6]);
  Bs[5]->addPred(Bs[1]);
  return M;
}

void breakWideSSA(Module &M, AnalysisManager &) {
  Function &F = *M.getFunction("main");
  const std::vector<BasicBlock *> Blocks = F.blocks();
  auto IsBinOp = [](Instruction &I) { return isa<BinOpInst>(&I); };
  auto HasInstOperand = [](Instruction &I) {
    return I.numOperands() && isa<Instruction>(I.operand(0));
  };
  auto HasConstOperand = [](Instruction &I) {
    return I.numOperands() && !isa<PhiInst>(&I) &&
           isa<ConstantInt>(I.operand(0));
  };

  // ssa-use-lists: an instruction operand in two blocks, and a shared
  // constant's operand.
  for (unsigned K = 0; K != 2; ++K) {
    Instruction *I = findInst(F, K, HasInstOperand);
    ASSERT_NE(I, nullptr);
    I->operand(0)->removeUse(Use{I, 0, false});
  }
  Instruction *C = findInst(F, 1, HasConstOperand);
  ASSERT_NE(C, nullptr);
  C->operand(0)->removeUse(Use{C, 0, false});

  // ssa-use-dominance: a binop of the entry block reads a value defined
  // in the last block, and one reads a value defined after it.
  BasicBlock *Last = Blocks.back();
  Instruction *LateDef = nullptr;
  for (auto &I : *Last)
    if (isa<BinOpInst>(I.get()))
      LateDef = I.get();
  ASSERT_NE(LateDef, nullptr);
  Instruction *Early = findInst(F, 0, IsBinOp);
  ASSERT_NE(Early, nullptr);
  Early->setOperand(1, LateDef);
  Instruction *Second = findInst(F, 2, IsBinOp);
  ASSERT_NE(Second, nullptr);
  for (auto &I : *Second->parent())
    if (I.get() != Second && isa<BinOpInst>(I.get()) &&
        Second->parent()->comesBefore(Second, I.get())) {
      Second->setOperand(1, I.get());
      break;
    }

  // ssa-phi-grouping / ssa-phi-incoming: phis dropped before the
  // terminators of the entry block and of two later blocks.
  for (unsigned K : {0u, 3u, 5u}) {
    Blocks[K]->insertBeforeTerminator(
        std::make_unique<PhiInst>(Type::Int, "stray"));
  }

  // mem-def-links (and mem-name-links at Full): a store's version claims
  // another instruction as its definition.
  Instruction *St = findInst(F, 1, [](Instruction &I) {
    return isa<StoreInst>(&I) && I.numMemDefs();
  });
  ASSERT_NE(St, nullptr);
  St->memDef(0)->setDef(Early);

  // mem-use-lists: a load's mu-operand is unregistered, in two blocks.
  auto IsMemLoad = [](Instruction &I) {
    return isa<LoadInst>(&I) && I.numMemOperands();
  };
  for (unsigned K : {1u, 4u}) {
    Instruction *Ld = findInst(F, K, IsMemLoad);
    ASSERT_NE(Ld, nullptr);
    Ld->memOperand(0)->removeUse(Use{Ld, 0, true});
  }

  // mem-use-dominance (and mem-version-consistency at Full): the first
  // load reads the last version of its object.
  Instruction *FirstLd = findInst(F, 0, IsMemLoad);
  ASSERT_NE(FirstLd, nullptr);
  const MemoryObject *Obj = cast<LoadInst>(FirstLd)->object();
  MemoryName *LastVersion = nullptr;
  for (auto BB = Blocks.rbegin(); BB != Blocks.rend() && !LastVersion; ++BB)
    for (auto &I : **BB)
      if (MemoryName *D = I->memDefFor(Obj))
        LastVersion = D;
  ASSERT_NE(LastVersion, nullptr);
  FirstLd->setMemOperand(0, LastVersion);

  // mem-alias-tagging: a binop grows a mu-operand.
  Instruction *Tagged = findInst(F, 3, IsBinOp);
  ASSERT_NE(Tagged, nullptr);
  ASSERT_NE(F.entryMemoryName(Obj), nullptr);
  Tagged->addMemOperand(F.entryMemoryName(Obj));

  // mem-phi-placement: a duplicate memphi at a join, and a memphi in a
  // single-predecessor block.
  Instruction *Join = findInst(F, 0, [](Instruction &I) {
    return isa<MemPhiInst>(&I);
  });
  ASSERT_NE(Join, nullptr);
  auto *Orig = cast<MemPhiInst>(Join);
  auto Dup = std::make_unique<MemPhiInst>(Orig->object());
  for (unsigned Idx = 0; Idx != Orig->numIncoming(); ++Idx)
    Dup->addIncoming(Orig->incomingName(Idx), Orig->incomingBlock(Idx));
  Dup->addMemDef(F.createMemoryName(Orig->object()));
  Join->parent()->prepend(std::move(Dup));
  for (BasicBlock *BB : Blocks)
    if (BB->numPreds() == 1) {
      auto Single = std::make_unique<MemPhiInst>(Orig->object());
      Single->addIncoming(Orig->incomingName(0), BB->preds().front());
      Single->addMemDef(F.createMemoryName(Orig->object()));
      BB->prepend(std::move(Single));
      break;
    }

  // promo-web-values: copies of a memory version, in two blocks.
  for (unsigned K : {2u, 6u}) {
    Blocks[K]->insertBeforeTerminator(std::make_unique<CopyInst>(LastVersion));
  }
}

void breakWideCanonical(Module &M, AnalysisManager &AM) {
  Function &F = *M.getFunction("main");
  std::set<const BasicBlock *> PHs = preheaders(F, AM);

  // promo-dummy-scope: dummy loads in the first two non-preheaders.
  MemoryObject *G = M.globals().front().get();
  unsigned Placed = 0;
  for (BasicBlock *BB : F.blocks())
    if (!PHs.count(BB) && BB->terminator() && Placed != 2) {
      BB->insertBeforeTerminator(std::make_unique<DummyLoadInst>(G));
      ++Placed;
    }
  ASSERT_EQ(Placed, 2u);

  // canon-critical-edges / canon-exit-tails / canon-preheaders: every
  // single-successor block that is neither a preheader nor the entry gets
  // a second edge to the return block (a join with several predecessors
  // once this is done). The cached interval tree still describes the
  // old CFG.
  BasicBlock *RetBB = nullptr;
  for (BasicBlock *BB : F.blocks())
    if (BB->terminator() && isa<RetInst>(BB->terminator()))
      RetBB = BB;
  ASSERT_NE(RetBB, nullptr);
  std::vector<BasicBlock *> Sources;
  for (BasicBlock *BB : F.blocks())
    if (BB != F.entry() && BB != RetBB && !PHs.count(BB) &&
        BB->succs().size() == 1 && BB->succs().front() != RetBB)
      Sources.push_back(BB);
  ASSERT_GE(Sources.size(), 2u);
  for (size_t K = 0; K != 2; ++K) {
    BasicBlock *BB = Sources[K];
    BasicBlock *S = BB->succs().front();
    BB->erase(BB->terminator());
    S->removePred(BB);
    IRBuilder B(BB);
    B.condBr(M.constant(1), S, RetBB);
  }
  // A second way into the first loop, from a new unreachable block.
  for (Interval *Iv : AM.get<IntervalTree>(F).postorder())
    if (!Iv->isRoot()) {
      IRBuilder B(F.createBlock("rogue"));
      B.br(Iv->header());
      break;
    }
}

/// A function whose shared constants have long use lists, with broken
/// registrations among them (one moved to the wrong constant's list).
std::unique_ptr<Module> manyConstants() {
  auto M = std::make_unique<Module>("constants");
  Function *F = M->createFunction("sum", Type::Int);
  Argument *A = F->addArgument("a");
  IRBuilder B(F->createBlock("entry"));
  Value *Acc = A;
  for (unsigned I = 0; I != 40; ++I)
    Acc = B.add(B.add(Acc, M->constant(1)), M->constant(2));
  BasicBlock *Tail = F->createBlock("tail");
  B.br(Tail);
  B.setInsertPoint(Tail);
  for (unsigned I = 0; I != 40; ++I)
    Acc = B.mul(Acc, M->constant(1));
  B.ret(Acc);
  return M;
}

void breakConstantUses(Module &M, AnalysisManager &) {
  Function &F = *M.getFunction("sum");
  ConstantInt *One = M.constant(1), *Two = M.constant(2);
  unsigned Seen = 0;
  for (BasicBlock *BB : F.blocks())
    for (auto &I : *BB)
      if (I->numOperands() == 2 && I->operand(1) == One) {
        ++Seen;
        if (Seen == 7) { // registered with the wrong constant
          One->removeUse(Use{I.get(), 1, false});
          Two->addUse(Use{I.get(), 1, false});
        } else if (Seen == 30 || Seen == 61) { // not registered at all
          One->removeUse(Use{I.get(), 1, false});
        } else if (Seen == 50) { // registered twice
          One->addUse(Use{I.get(), 1, false});
        }
      }
  ASSERT_GT(Seen, 61u);
}

const std::vector<GoldenCase> &cases() {
  static const std::vector<GoldenCase> Cases = {
      // The MutationTest corruptions, one per layer.
      {"l0-missing-terminator",
       [] { return fromMiniC("int main() { return 0; }"); }, false, false,
       [](Module &M, AnalysisManager &) {
         BasicBlock *BB = M.getFunction("main")->entry();
         BB->erase(BB->terminator());
       }},
      {"l1-broken-use-list",
       [] { return fromMiniC("int main() { int x; x = 2; return x + 1; }"); },
       false, false,
       [](Module &M, AnalysisManager &) {
         Function &F = *M.getFunction("main");
         Instruction *I = findInst(F, 0, [](Instruction &I) {
           return I.numOperands() && isa<Instruction>(I.operand(0));
         });
         ASSERT_NE(I, nullptr);
         I->operand(0)->removeUse(Use{I, 0, false});
       }},
      {"l2-stale-memory-version",
       [] { return fromMiniC("int g = 0; int main() { g = 1; return g; }"); },
       false, true,
       [](Module &M, AnalysisManager &) {
         Function &F = *M.getFunction("main");
         for (BasicBlock *BB : F.blocks())
           for (auto &I : *BB) {
             auto *Ld = dyn_cast<LoadInst>(I.get());
             if (!Ld || !Ld->memUse())
               continue;
             MemoryName *Entry = F.entryMemoryName(Ld->object());
             if (!Entry || Ld->memUse() == Entry)
               continue;
             Ld->removeMemOperand(0);
             Ld->addMemOperand(Entry);
             return;
           }
         FAIL() << "no load reading a stored version";
       }},
      {"l3-second-loop-entry", [] { return fromMiniC(LoopProgram); }, true,
       false,
       [](Module &M, AnalysisManager &AM) {
         Function &F = *M.getFunction("main");
         for (Interval *Iv : AM.get<IntervalTree>(F).postorder())
           if (!Iv->isRoot()) {
             IRBuilder B(F.createBlock("rogue"));
             B.br(Iv->header());
             return;
           }
         FAIL() << "no loop interval found";
       }},
      {"l4-dummy-load-outside-preheader",
       [] { return fromMiniC(LoopProgram); }, true, false,
       [](Module &M, AnalysisManager &AM) {
         Function &F = *M.getFunction("main");
         std::set<const BasicBlock *> PHs = preheaders(F, AM);
         MemoryObject *G = M.globals().front().get();
         for (BasicBlock *BB : F.blocks())
           if (!PHs.count(BB) && BB->terminator()) {
             BB->insertBeforeTerminator(std::make_unique<DummyLoadInst>(G));
             return;
           }
         FAIL() << "every block is a preheader?";
       }},
      // Several checks in several blocks.
      {"multi-cfg", brokenCFG, false, false,
       [](Module &, AnalysisManager &) {}},
      {"multi-ssa-memssa", [] { return fromMiniC(WideProgram); }, false, true,
       breakWideSSA},
      {"multi-canonical-promotion", [] { return fromMiniC(WideProgram); },
       true, false, breakWideCanonical},
      {"shared-constant-use-lists", manyConstants, false, false,
       breakConstantUses},
  };
  return Cases;
}

struct Run {
  const char *Label;
  Strictness Level;
  bool WithAM;
};

/// Runs \p C three times on fresh copies and renders every run.
std::string renderCase(const GoldenCase &C) {
  std::string Out;
  for (const Run &R : {Run{"fast", Strictness::Fast, true},
                       Run{"full", Strictness::Full, true},
                       Run{"full, no analysis manager", Strictness::Full,
                           false}}) {
    std::unique_ptr<Module> M = C.Build();
    if (!M) {
      ADD_FAILURE() << C.Name << ": build failed";
      return Out;
    }
    AnalysisManager AM(M.get());
    for (const auto &F : M->functions()) {
      if (F->empty())
        continue;
      if (C.Canonical)
        canonicalize(*F, AM);
      if (C.MemSSA)
        AM.get<MemorySSAInfo>(*F);
    }
    C.Mutate(*M, AM);
    DiagnosticEngine DE;
    CheckRunStats S = runChecks(*M, DE, R.Level, R.WithAM ? &AM : nullptr);
    EXPECT_EQ(S.Diagnostics, DE.size()) << C.Name << " " << R.Label;
    Out += "== " + std::string(R.Label) + ": checks_run " +
           std::to_string(S.ChecksRun) + ", diagnostics " +
           std::to_string(S.Diagnostics) + "\n";
    Out += diagnosticsToText(DE.diagnostics());
    Out += diagnosticsToJson(DE.diagnostics());
    Out += "\n";
  }
  return Out;
}

class DiagnosticsGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DiagnosticsGoldenTest, MatchesGolden) {
  const GoldenCase &C = cases()[GetParam()];
  std::string Got = renderCase(C);
  const std::string Path = std::string(SRP_GOLDEN_DIR) + "/diagnostics/" +
                           C.Name + ".txt";
  const char *Update = std::getenv("SRP_UPDATE_GOLDEN");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream(Path, std::ios::binary) << Got;
    ADD_FAILURE() << "rewrote " << Path << "; review the diff and re-run";
    return;
  }
  std::string Want = readText(Path);
  ASSERT_FALSE(Want.empty()) << "missing golden " << Path;
  EXPECT_EQ(Want, Got) << "golden " << Path;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiagnosticsGoldenTest, ::testing::Range<size_t>(0, cases().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = cases()[Info.param].Name;
      for (char &Ch : Name)
        if (Ch == '-')
          Ch = '_';
      return Name;
    });

} // namespace
