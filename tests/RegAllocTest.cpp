//===- tests/RegAllocTest.cpp - liveness and coloring tests ---------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"
#include "regalloc/Liveness.h"
#include "gen/ProgramGen.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "pipeline/Pipeline.h"
#include "support/BitVector.h"
#include "support/RNG.h"
#include "TestHelpers.h"
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace srp;
using namespace srp::test;

namespace {

#ifndef SRP_GOLDEN_DIR
#error "SRP_GOLDEN_DIR must point at tests/golden"
#endif

/// True if value index \p V is in the ascending live list \p Set.
bool has(const std::vector<unsigned> &Set, unsigned V) {
  return std::binary_search(Set.begin(), Set.end(), V);
}

TEST(LivenessTest, StraightLineLiveRanges) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  auto *A = cast<Instruction>(B.add(M.constant(1), M.constant(2)));
  auto *C = cast<Instruction>(B.add(A, M.constant(3)));
  B.ret(C);

  Liveness LV(*F);
  EXPECT_TRUE(LV.tracks(A));
  EXPECT_TRUE(LV.tracks(C));
  // Nothing is live across the block boundary.
  EXPECT_TRUE(LV.liveOut(BB).empty());
  EXPECT_TRUE(LV.liveIn(BB).empty());
}

TEST(LivenessTest, ValueLiveAcrossBlocks) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  auto *X = cast<Instruction>(B.add(M.constant(1), M.constant(2)));
  B.br(B1);
  B.setInsertPoint(B1);
  B.ret(X);

  Liveness LV(*F);
  EXPECT_TRUE(has(LV.liveOut(A), LV.indexOf(X)));
  EXPECT_TRUE(has(LV.liveIn(B1), LV.indexOf(X)));
}

TEST(LivenessTest, PhiOperandLiveOutOfIncomingBlockOnly) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.condBr(M.constant(1), L, R);
  B.setInsertPoint(L);
  auto *VL = cast<Instruction>(B.add(M.constant(1), M.constant(0)));
  B.br(J);
  B.setInsertPoint(R);
  auto *VR = cast<Instruction>(B.add(M.constant(2), M.constant(0)));
  B.br(J);
  B.setInsertPoint(J);
  PhiInst *P = B.phi(Type::Int);
  P->addIncoming(VL, L);
  P->addIncoming(VR, R);
  B.ret(P);

  Liveness LV(*F);
  EXPECT_TRUE(has(LV.liveOut(L), LV.indexOf(VL)));
  EXPECT_FALSE(has(LV.liveOut(R), LV.indexOf(VL)));
  EXPECT_TRUE(has(LV.liveOut(R), LV.indexOf(VR)));
  // The phi result is defined at J's top; its operands are not live-in.
  EXPECT_FALSE(has(LV.liveIn(J), LV.indexOf(VL)));
}

TEST(LivenessTest, LoopCarriedValueLiveAroundBackEdge) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *E = F->createBlock("e");
  BasicBlock *H = F->createBlock("h");
  BasicBlock *X = F->createBlock("x");
  IRBuilder B(E);
  B.br(H);
  B.setInsertPoint(H);
  PhiInst *P = B.phi(Type::Int, "i");
  auto *Inc = cast<Instruction>(B.add(P, M.constant(1)));
  P->addIncoming(M.constant(0), E);
  P->addIncoming(Inc, H);
  B.condBr(B.cmpLT(Inc, M.constant(10)), H, X);
  B.setInsertPoint(X);
  B.ret(Inc);

  Liveness LV(*F);
  EXPECT_TRUE(has(LV.liveOut(H), LV.indexOf(Inc)));
  EXPECT_TRUE(has(LV.liveIn(X), LV.indexOf(Inc)));
}

TEST(LivenessTest, ArgumentsAreTracked) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  Argument *A0 = F->addArgument("a");
  Argument *A1 = F->addArgument("b");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.ret(B.add(A0, A1));

  Liveness LV(*F);
  EXPECT_TRUE(LV.tracks(A0));
  EXPECT_TRUE(LV.tracks(A1));
}

TEST(ColoringTest, IndependentValuesShareColors) {
  // Two values with disjoint live ranges need 1-2 colors, not 2+.
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  B.print(A); // A dies here
  Value *C = B.add(M.constant(3), M.constant(4));
  B.print(C);
  B.ret();

  PressureReport R = measureRegisterPressure(*F);
  EXPECT_EQ(R.ColorsNeeded, 1u);
  EXPECT_EQ(R.Edges, 0u);
}

TEST(ColoringTest, OverlappingValuesNeedDistinctColors) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *C = B.add(M.constant(3), M.constant(4));
  Value *D = B.add(A, C); // A and C overlap
  B.print(D);
  B.ret();

  PressureReport R = measureRegisterPressure(*F);
  EXPECT_GE(R.ColorsNeeded, 2u);
  EXPECT_GE(R.Edges, 1u);
  EXPECT_GE(R.MaxLive, 2u);
}

TEST(ColoringTest, KSimultaneousValuesNeedKColors) {
  // N values all live at one point form a clique.
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  std::vector<Value *> Vals;
  for (int I = 0; I != 6; ++I)
    Vals.push_back(B.add(M.constant(I), M.constant(I + 1)));
  Value *Sum = Vals[0];
  for (int I = 1; I != 6; ++I)
    Sum = B.add(Sum, Vals[I]);
  B.print(Sum);
  B.ret();

  PressureReport R = measureRegisterPressure(*F);
  EXPECT_GE(R.MaxLive, 6u);
  EXPECT_GE(R.ColorsNeeded, 6u);
  EXPECT_LE(R.ColorsNeeded, 7u); // greedy stays near-optimal on cliques
}

TEST(ColoringTest, EmptyFunctionReportsZero) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.ret();
  PressureReport R = measureRegisterPressure(*F);
  EXPECT_EQ(R.NumValues, 0u);
  EXPECT_EQ(R.ColorsNeeded, 0u);
}

//===----------------------------------------------------------------------===
// Pressure golden: NumValues, Edges, ColorsNeeded and MaxLive of every
// function after every promotion mode, pinned in tests/golden/pressure.txt.
// Nothing else pins the per-function figures Table 3 is built from.
//
// Regenerate after an intentional change to the pipeline with:
//   SRP_UPDATE_GOLDEN=1 ./srp_tests --gtest_filter='RegisterPressureGolden*'
// which rewrites the file and fails the run so the diff gets reviewed.
//===----------------------------------------------------------------------===

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One function of \p N `if`-without-`else` statements over locals; every
/// `if` leaves a critical edge behind, as in the benchmark's triangles.
std::string triangleProgram(unsigned N) {
  std::ostringstream OS;
  OS << "int main() {\n  int x = 7;\n  int y = 0;\n";
  for (unsigned I = 0; I != N; ++I) {
    unsigned K = 1 + (I * 37 + 11) % 97;
    OS << "  if ((x % " << K + 2 << ") > " << K / 2 << ") { y = y + " << K
       << "; }\n";
    if (I % 4 == 0)
      OS << "  x = x * 3 + y;\n";
    else
      OS << "  x = x + " << I % 13 << ";\n";
  }
  OS << "  print(x);\n  print(y);\n  return y & 255;\n}\n";
  return OS.str();
}

/// One function of \p N `if`/`else` statements whose arms update
/// globals: the webs promotion works on.
std::string diamondProgram(unsigned N) {
  constexpr unsigned Globals = 16;
  std::ostringstream OS;
  for (unsigned G = 0; G != Globals; ++G)
    OS << "int g" << G << " = " << G % 10 << ";\n";
  OS << "int main() {\n  int x = 5;\n";
  for (unsigned I = 0; I != N; ++I) {
    unsigned A = I % Globals, B = (I + 5) % Globals;
    unsigned K = 2 + (I * 19 + 3) % 28;
    OS << "  if ((x % " << K << ") > " << K / 2 << ") { g" << A << " = g" << A
       << " + x; } else { g" << B << " = g" << B << " - " << K << "; }\n"
       << "  x = x + g" << (I + 11) % Globals << ";\n";
  }
  OS << "  print(x);\n  return x & 255;\n}\n";
  return OS.str();
}

/// One golden line per function of \p Source after mode \p Mode. The
/// pipeline's own pressure pass (liveness from the analysis cache) must
/// agree with the per-function sums and maxima.
std::string pressureLines(const std::string &Label, const std::string &Source,
                          PromotionMode Mode) {
  PipelineResult R = PipelineBuilder().mode(Mode).run(Source);
  for (const auto &E : R.Errors)
    ADD_FAILURE() << Label << ": " << E;
  if (!R.Ok || !R.M)
    return {};
  std::ostringstream OS;
  PressureReport Total;
  for (const auto &F : R.M->functions()) {
    PressureReport P = measureRegisterPressure(*F);
    OS << Label << '/' << promotionModeName(Mode) << '/' << F->name() << '\t'
       << P.NumValues << ' ' << P.Edges << ' ' << P.ColorsNeeded << ' '
       << P.MaxLive << '\n';
    Total.NumValues += P.NumValues;
    Total.Edges += P.Edges;
    Total.ColorsNeeded = std::max(Total.ColorsNeeded, P.ColorsNeeded);
    Total.MaxLive = std::max(Total.MaxLive, P.MaxLive);
  }
  EXPECT_EQ(R.Pressure.NumValues, Total.NumValues) << Label;
  EXPECT_EQ(R.Pressure.Edges, Total.Edges) << Label;
  EXPECT_EQ(R.Pressure.ColorsNeeded, Total.ColorsNeeded) << Label;
  EXPECT_EQ(R.Pressure.MaxLive, Total.MaxLive) << Label;
  return OS.str();
}

TEST(RegisterPressureGoldenTest, EveryFunctionMatchesGolden) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const char *File :
       {"compress.mc", "db.mc", "eqntott.mc", "gcc.mc", "go.mc", "ijpeg.mc",
        "li.mc", "m88ksim.mc", "mpeg.mc", "perl.mc", "spice.mc",
        "vortex.mc"}) {
    std::string Text = readText(std::string(SRP_WORKLOAD_DIR) + "/" + File);
    ASSERT_FALSE(Text.empty()) << "cannot read workload " << File;
    Programs.emplace_back(File, std::move(Text));
  }
  Programs.emplace_back("triangles-500", triangleProgram(500));
  Programs.emplace_back("diamonds-500", diamondProgram(500));

  std::string Got;
  for (const auto &[Label, Source] : Programs)
    for (PromotionMode Mode : allPromotionModes())
      Got += pressureLines(Label, Source, Mode);

  const std::string Path = std::string(SRP_GOLDEN_DIR) + "/pressure.txt";
  const char *Update = std::getenv("SRP_UPDATE_GOLDEN");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(Path);
    Out << "# <program>/<mode>/<function>\\tNumValues Edges ColorsNeeded "
           "MaxLive\n"
        << Got;
    FAIL() << "rewrote " << Path << "; review the diff and re-run";
  }

  std::istringstream Want(readText(Path)), Have(Got);
  std::string W, H;
  unsigned Lines = 0;
  while (true) {
    while (std::getline(Want, W) && (W.empty() || W[0] == '#'))
      ;
    bool MoreWant = static_cast<bool>(Want);
    bool MoreHave = static_cast<bool>(std::getline(Have, H));
    if (!MoreWant || !MoreHave) {
      EXPECT_EQ(MoreWant, MoreHave)
          << "line count differs after " << Lines << " lines";
      break;
    }
    ASSERT_EQ(W, H) << "first mismatch at golden line " << Lines + 1;
    ++Lines;
  }
  EXPECT_GT(Lines, 0u) << "empty golden file " << Path;
}

//===----------------------------------------------------------------------===
// Differential liveness and pressure: the sparse path exploration against
// the dense iterative fixpoint it replaced, on every block, and the sparse
// interference and heap simplify against the quadratic construction and
// linear-scan simplify, on every function of the golden corpus, generated
// programs and random CFGs.
//===----------------------------------------------------------------------===

/// Reference oracle: per-block dense N-bit use, def and phi-out maps,
/// live-in/live-out iterated to the least fixpoint of
///   out[B] = phiOut[B] + union of in[S] over successors S,
///   in[B]  = use[B] + (out[B] - def[B]).
/// Values are numbered as Liveness numbers them: arguments, then
/// instruction results in layout order.
struct DenseLiveness {
  std::vector<Value *> Values;
  std::unordered_map<const BasicBlock *, BitVector> LiveIn, LiveOut;

  explicit DenseLiveness(Function &F) {
    std::unordered_map<const Value *, unsigned> IndexOf;
    for (unsigned I = 0; I != F.numArgs(); ++I) {
      IndexOf[F.arg(I)] = static_cast<unsigned>(Values.size());
      Values.push_back(F.arg(I));
    }
    std::vector<BasicBlock *> Blocks = F.blocks();
    for (BasicBlock *BB : Blocks)
      for (auto &I : *BB)
        if (I->type() != Type::Void) {
          IndexOf[I.get()] = static_cast<unsigned>(Values.size());
          Values.push_back(I.get());
        }
    unsigned N = static_cast<unsigned>(Values.size());
    auto Tracks = [&](const Value *V) { return IndexOf.count(V) != 0; };

    std::unordered_map<const BasicBlock *, BitVector> UseB, DefB, PhiOut;
    for (BasicBlock *BB : Blocks) {
      LiveIn[BB].resize(N);
      LiveOut[BB].resize(N);
      UseB[BB].resize(N);
      DefB[BB].resize(N);
      PhiOut[BB].resize(N);
    }
    for (BasicBlock *BB : Blocks) {
      BitVector &U = UseB[BB];
      BitVector &D = DefB[BB];
      for (auto &IP : *BB) {
        Instruction *I = IP.get();
        if (auto *P = dyn_cast<PhiInst>(I)) {
          for (unsigned K = 0; K != P->numIncoming(); ++K) {
            Value *V = P->incomingValue(K);
            if (Tracks(V))
              PhiOut[P->incomingBlock(K)].set(IndexOf.at(V));
          }
        } else {
          for (Value *Op : I->operands())
            if (Tracks(Op) && !D.test(IndexOf.at(Op)))
              U.set(IndexOf.at(Op));
        }
        if (I->type() != Type::Void)
          D.set(IndexOf.at(I));
      }
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto It = Blocks.rbegin(); It != Blocks.rend(); ++It) {
        BasicBlock *BB = *It;
        BitVector Out = PhiOut[BB];
        for (BasicBlock *S : BB->succs())
          Out.unionWith(LiveIn[S]);
        BitVector In = Out;
        In.subtract(DefB[BB]);
        In.unionWith(UseB[BB]);
        if (!(Out == LiveOut[BB])) {
          LiveOut[BB] = std::move(Out);
          Changed = true;
        }
        if (!(In == LiveIn[BB])) {
          LiveIn[BB] = std::move(In);
          Changed = true;
        }
      }
    }
  }

  static std::vector<unsigned> list(const BitVector &Bits) {
    std::vector<unsigned> L;
    for (int I = Bits.findFirst(); I >= 0;
         I = Bits.findNext(static_cast<unsigned>(I)))
      L.push_back(static_cast<unsigned>(I));
    return L;
  }
};

/// Reference pressure: the quadratic interference and coloring the sparse
/// version replaced, over the dense liveness above. std::set adjacency,
/// a dense live bit-vector per instruction, and simplify by a linear scan
/// for the lowest-degree, then lowest-index node.
PressureReport densePressure(Function &F) {
  DenseLiveness LV(F);
  PressureReport R;
  unsigned N = static_cast<unsigned>(LV.Values.size());
  R.NumValues = N;
  if (N == 0)
    return R;
  std::unordered_map<const Value *, unsigned> IndexOf;
  for (unsigned I = 0; I != N; ++I)
    IndexOf[LV.Values[I]] = I;
  std::vector<std::set<unsigned>> Adj(N);
  for (BasicBlock *BB : F.blocks()) {
    BitVector Live = LV.LiveOut.at(BB);
    R.MaxLive = std::max(R.MaxLive, Live.count());
    std::vector<Instruction *> Insts;
    for (auto &I : *BB)
      Insts.push_back(I.get());
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      Instruction *I = *It;
      if (I->type() != Type::Void) {
        unsigned D = IndexOf.at(I);
        for (int Idx = Live.findFirst(); Idx >= 0;
             Idx = Live.findNext(static_cast<unsigned>(Idx)))
          if (static_cast<unsigned>(Idx) != D &&
              Adj[D].insert(static_cast<unsigned>(Idx)).second) {
            Adj[static_cast<unsigned>(Idx)].insert(D);
            ++R.Edges;
          }
        Live.reset(D);
      }
      if (!isa<PhiInst>(I))
        for (Value *Op : I->operands())
          if (IndexOf.count(Op))
            Live.set(IndexOf.at(Op));
      R.MaxLive = std::max(R.MaxLive, Live.count());
    }
  }
  std::vector<unsigned> Degree(N);
  for (unsigned I = 0; I != N; ++I)
    Degree[I] = static_cast<unsigned>(Adj[I].size());
  std::vector<bool> Removed(N, false);
  std::vector<unsigned> Stack;
  for (unsigned Round = 0; Round != N; ++Round) {
    unsigned Best = N;
    for (unsigned I = 0; I != N; ++I)
      if (!Removed[I] && (Best == N || Degree[I] < Degree[Best]))
        Best = I;
    Removed[Best] = true;
    Stack.push_back(Best);
    for (unsigned Nb : Adj[Best])
      if (!Removed[Nb])
        --Degree[Nb];
  }
  std::vector<int> Color(N, -1);
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    std::set<int> Taken;
    for (unsigned Nb : Adj[*It])
      if (Color[Nb] >= 0)
        Taken.insert(Color[Nb]);
    int C = 0;
    while (Taken.count(C))
      ++C;
    Color[*It] = C;
    R.ColorsNeeded = std::max(R.ColorsNeeded, static_cast<unsigned>(C) + 1);
  }
  return R;
}

void expectPressureMatchesReference(Function &F, const std::string &What) {
  PressureReport Got = measureRegisterPressure(F);
  PressureReport Want = densePressure(F);
  EXPECT_EQ(Got.NumValues, Want.NumValues) << What;
  EXPECT_EQ(Got.Edges, Want.Edges) << What;
  EXPECT_EQ(Got.ColorsNeeded, Want.ColorsNeeded) << What;
  EXPECT_EQ(Got.MaxLive, Want.MaxLive) << What;
}

/// Asserts Liveness equals the dense reference on every block of \p F;
/// returns the number of (block, value) live-in/live-out entries compared.
size_t expectLivenessMatchesReference(Function &F, const std::string &What) {
  Liveness LV(F);
  DenseLiveness Ref(F);
  EXPECT_EQ(LV.values(), Ref.Values) << What << ": value numbering differs";
  size_t Entries = 0;
  for (BasicBlock *BB : F.blocks()) {
    std::vector<unsigned> In = DenseLiveness::list(Ref.LiveIn.at(BB));
    std::vector<unsigned> Out = DenseLiveness::list(Ref.LiveOut.at(BB));
    EXPECT_EQ(LV.liveIn(BB), In) << What << ": live-in of " << BB->name();
    EXPECT_EQ(LV.liveOut(BB), Out) << What << ": live-out of " << BB->name();
    Entries += In.size() + Out.size();
  }
  return Entries;
}

size_t expectModuleMatchesReference(Module &M,
                                            const std::string &What) {
  size_t Entries = 0;
  for (const auto &F : M.functions()) {
    Entries += expectLivenessMatchesReference(*F, What + "/" + F->name());
    expectPressureMatchesReference(*F, What + "/" + F->name());
  }
  return Entries;
}

/// Checks \p Source straight out of the frontend (no phis) and after the
/// pipeline under \p Mode (mem2reg phis, promotion's webs).
size_t expectProgramMatchesReference(const std::string &Source,
                                             PromotionMode Mode,
                                             const std::string &What) {
  size_t Entries = 0;
  std::vector<std::string> Errors;
  if (auto M = compileMiniC(Source, Errors))
    Entries += expectModuleMatchesReference(*M, What + "/frontend");
  EXPECT_TRUE(Errors.empty()) << What << ": " << Errors.front();
  PipelineResult R =
      PipelineBuilder().mode(Mode).measurePressure(false).run(Source);
  EXPECT_TRUE(R.Ok) << What;
  if (R.M)
    Entries += expectModuleMatchesReference(
        *R.M, What + "/" + promotionModeName(Mode));
  return Entries;
}

TEST(LivenessDifferentialTest, GoldenCorpusMatchesDenseFixpoint) {
  std::ifstream Manifest(std::string(SRP_CORPUS_DIR) + "/expected.txt");
  std::string Line;
  unsigned Programs = 0;
  size_t Entries = 0;
  while (std::getline(Manifest, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string File = Line.substr(0, Line.find('\t'));
    std::string Source = readText(std::string(SRP_CORPUS_DIR) + "/" + File);
    ASSERT_FALSE(Source.empty()) << "cannot read corpus entry " << File;
    for (PromotionMode Mode : allPromotionModes())
      Entries += expectProgramMatchesReference(Source, Mode, File);
    ++Programs;
  }
  EXPECT_EQ(Programs, 20u);
  EXPECT_GT(Entries, 0u);
}

TEST(LivenessDifferentialTest, GeneratedProgramsMatchDenseFixpoint) {
  size_t Entries = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Source = gen::ProgramGen(Seed, gen::biasedConfig(Seed))
                             .generate();
    PromotionMode Mode = allPromotionModes()[Seed % allPromotionModes().size()];
    Entries += expectProgramMatchesReference(
        Source, Mode, "seed " + std::to_string(Seed));
    if (HasFailure())
      break;
  }
  EXPECT_GT(Entries, 0u);
}

/// A random CFG in RandomCFGTest's shape (N blocks, block 0 the entry,
/// every block ending in ret / br / condbr to random targets, so
/// unreachable blocks and self-loops occur), populated with values: two
/// arguments, up to two phis per block whose operands may come from any
/// block, and adds over random values. Some adds are then rewired to use
/// values defined later, in the same block or elsewhere, so uses that
/// their definitions do not dominate are exercised too.
std::unique_ptr<Module> randomValueCFG(uint64_t Seed, unsigned N) {
  RNG Rand(Seed);
  auto M = std::make_unique<Module>("randcfg");
  Function *F = M->createFunction("f", Type::Int);
  std::vector<Value *> Pool = {F->addArgument("a"), F->addArgument("b")};
  auto Pick = [&]() -> Value * {
    if (Rand.below(5) == 0)
      return M->constant(static_cast<int64_t>(Rand.below(9)));
    return Pool[Rand.below(Pool.size())];
  };
  std::vector<BasicBlock *> Blocks;
  for (unsigned I = 0; I != N; ++I)
    Blocks.push_back(F->createBlock("b" + std::to_string(I)));
  std::vector<PhiInst *> Phis;
  std::vector<Instruction *> Adds;
  for (unsigned I = 0; I != N; ++I) {
    IRBuilder B(Blocks[I]);
    for (unsigned K = Rand.below(3); K != 0; --K) {
      Phis.push_back(B.phi(Type::Int));
      Pool.push_back(Phis.back());
    }
    for (unsigned K = Rand.below(4); K != 0; --K) {
      Adds.push_back(cast<Instruction>(B.add(Pick(), Pick())));
      Pool.push_back(Adds.back());
    }
    unsigned Kind = static_cast<unsigned>(Rand.below(10));
    if (Kind < 2 || N == 1) {
      B.ret(Pick());
    } else if (Kind < 6) {
      B.br(Blocks[Rand.below(N)]);
    } else {
      BasicBlock *T = Blocks[Rand.below(N)];
      BasicBlock *E = Blocks[Rand.below(N)];
      if (T == E)
        B.br(T);
      else
        B.condBr(Pick(), T, E);
    }
  }
  for (PhiInst *P : Phis)
    for (BasicBlock *Pred : P->parent()->preds())
      P->addIncoming(Pick(), Pred);
  for (Instruction *I : Adds)
    if (Rand.below(4) == 0)
      I->setOperand(static_cast<unsigned>(Rand.below(2)), Pick());
  return M;
}

TEST(LivenessDifferentialTest, RandomCFGsMatchDenseFixpoint) {
  size_t Entries = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed)
    for (unsigned N : {1u, 2u, 5u, 12u, 40u}) {
      auto M = randomValueCFG(Seed * 131 + N, N);
      Entries += expectModuleMatchesReference(
          *M, "cfg seed " + std::to_string(Seed) + " n=" + std::to_string(N));
    }
  EXPECT_GT(Entries, 0u);
}

TEST(LivenessDifferentialTest, EdgeCasesMatchDenseFixpoint) {
  Module M;
  // Arguments only: used in the entry and in a later block.
  Function *ArgsOnly = M.createFunction("args", Type::Int);
  Argument *A0 = ArgsOnly->addArgument("a");
  Argument *A1 = ArgsOnly->addArgument("b");
  BasicBlock *AE = ArgsOnly->createBlock("entry");
  BasicBlock *AX = ArgsOnly->createBlock("x");
  BasicBlock *AY = ArgsOnly->createBlock("y");
  IRBuilder B(AE);
  B.condBr(A1, AX, AY);
  B.setInsertPoint(AX);
  B.ret(A1);
  B.setInsertPoint(AY);
  B.ret(A0);

  // A self-loop carrying a phi, and an unreachable block that uses a
  // value of the loop and branches back into it.
  Function *Loop = M.createFunction("loop", Type::Int);
  Argument *N = Loop->addArgument("n");
  BasicBlock *E = Loop->createBlock("entry");
  BasicBlock *H = Loop->createBlock("self");
  BasicBlock *X = Loop->createBlock("exit");
  BasicBlock *U = Loop->createBlock("unreachable");
  B.setInsertPoint(E);
  B.br(H);
  B.setInsertPoint(H);
  PhiInst *I = B.phi(Type::Int, "i");
  auto *Inc = cast<Instruction>(B.add(I, M.constant(1)));
  B.condBr(B.cmpLT(Inc, N), H, X);
  B.setInsertPoint(X);
  B.ret(Inc);
  B.setInsertPoint(U);
  B.add(Inc, N);
  B.br(H);
  I->addIncoming(M.constant(0), E);
  I->addIncoming(Inc, H);
  I->addIncoming(Inc, U);

  // Nothing to track at all.
  Function *Empty = M.createFunction("empty", Type::Void);
  B.setInsertPoint(Empty->createBlock("entry"));
  B.ret();

  expectModuleMatchesReference(M, "edge cases");
  Liveness LV(*Loop);
  EXPECT_TRUE(has(LV.liveOut(H), LV.indexOf(Inc)));
  EXPECT_TRUE(has(LV.liveIn(U), LV.indexOf(Inc)));
  EXPECT_TRUE(has(LV.liveIn(E), LV.indexOf(N)));
  Liveness AL(*ArgsOnly);
  EXPECT_TRUE(has(AL.liveIn(AE), AL.indexOf(A0)));
  EXPECT_TRUE(has(AL.liveIn(AY), AL.indexOf(A0)));
  EXPECT_FALSE(has(AL.liveIn(AX), AL.indexOf(A0)));
}

} // namespace
