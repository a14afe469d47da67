//===- tests/IRTest.cpp - IR core tests -----------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/CFGEdit.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::test;

namespace {

TEST(IRTest, ConstantsAreUniqued) {
  Module M;
  EXPECT_EQ(M.constant(7), M.constant(7));
  EXPECT_NE(M.constant(7), M.constant(8));
  EXPECT_EQ(M.constant(7)->value(), 7);
}

TEST(IRTest, UseListsTrackOperands) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *C1 = M.constant(1);
  Value *Add = B.add(C1, C1);
  B.ret(Add);

  // The constant is used twice by the add.
  unsigned Count = 0;
  for (const Use &U : C1->uses())
    if (U.User == Add)
      ++Count;
  EXPECT_EQ(Count, 2u);
  EXPECT_EQ(Add->numUses(), 1u);
}

TEST(IRTest, RAUWRedirectsAllUses) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *Mul = B.mul(A, A);
  B.ret(Mul);

  Value *Repl = M.constant(3);
  A->replaceAllUsesWith(Repl);
  EXPECT_FALSE(A->hasUses());
  auto *MulI = cast<Instruction>(Mul);
  EXPECT_EQ(MulI->operand(0), Repl);
  EXPECT_EQ(MulI->operand(1), Repl);
}

TEST(IRTest, EraseInstructionDropsOperandUses) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *A = B.add(M.constant(1), M.constant(2));
  Value *Dead = B.mul(A, M.constant(5));
  B.ret();

  EXPECT_EQ(A->numUses(), 1u);
  cast<Instruction>(Dead)->eraseFromParent();
  EXPECT_EQ(A->numUses(), 0u);
}

TEST(IRTest, ComesBeforeOrdering) {
  Module M;
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  auto *I1 = cast<Instruction>(B.add(M.constant(1), M.constant(1)));
  auto *I2 = cast<Instruction>(B.add(I1, I1));
  B.ret();
  EXPECT_TRUE(BB->comesBefore(I1, I2));
  EXPECT_FALSE(BB->comesBefore(I2, I1));

  // Insertion invalidates and rebuilds the ordering cache.
  auto *I0 = BB->prepend(std::make_unique<CopyInst>(M.constant(9), "c"));
  EXPECT_TRUE(BB->comesBefore(I0, I1));
}

TEST(IRTest, PhiIncomingMaintenance) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *C = F->createBlock("c");
  IRBuilder B(A);
  B.condBr(M.constant(1), B1, C);
  IRBuilder BB1(B1);
  BB1.br(C);
  IRBuilder BC(C);
  PhiInst *P = BC.phi(Type::Int, "p");
  P->addIncoming(M.constant(10), A);
  P->addIncoming(M.constant(20), B1);
  BC.ret(P);

  EXPECT_EQ(P->incomingValueFor(A), M.constant(10));
  EXPECT_EQ(P->indexOfBlock(B1), 1);
  P->removeIncoming(0);
  EXPECT_EQ(P->numIncoming(), 1u);
  EXPECT_EQ(P->incomingValueFor(B1), M.constant(20));
  EXPECT_EQ(M.constant(10)->numUses(), 0u);
}

TEST(IRTest, MemoryNameDefUseLinks) {
  Module M;
  MemoryObject *G = M.createGlobal("g", 5);
  Function *F = M.createFunction("f", Type::Void);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  StoreInst *St = B.store(G, M.constant(1));
  LoadInst *Ld = B.load(G);
  B.ret();

  MemoryName *V0 = F->createMemoryName(G);
  MemoryName *V1 = F->createMemoryName(G);
  F->setEntryMemoryName(G, V0);
  St->addMemDef(V1);
  Ld->addMemOperand(V1);

  EXPECT_EQ(V1->def(), St);
  EXPECT_EQ(Ld->memUse(), V1);
  EXPECT_EQ(V1->numUses(), 1u);
  EXPECT_TRUE(V0->isEntryVersion());
  EXPECT_EQ(St->memDefFor(G), V1);
  EXPECT_EQ(Ld->memOperandFor(G), V1);
}

TEST(IRTest, SplitCriticalEdgeUpdatesPhis) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  // a -> {b, j}: the a->j edge is critical because j also hears from b.
  B.condBr(M.constant(1), B1, J);
  IRBuilder BB1(B1);
  BB1.br(J);
  IRBuilder BJ(J);
  PhiInst *P = BJ.phi(Type::Int, "p");
  P->addIncoming(M.constant(1), A);
  P->addIncoming(M.constant(2), B1);
  BJ.ret(P);

  EXPECT_TRUE(isCriticalEdge(A, J));
  unsigned N = splitAllCriticalEdges(*F);
  EXPECT_EQ(N, 1u);
  expectValid(*F, "after splitting");
  EXPECT_EQ(P->indexOfBlock(A), -1); // now arrives via the split block
}

TEST(IRTest, PrinterMentionsCoreConstructs) {
  Module M;
  MemoryObject *G = M.createGlobal("x", 0);
  Function *F = M.createFunction("main", Type::Int);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  Value *L = B.load(G, "t0");
  B.store(G, B.add(L, M.constant(1)));
  B.ret(M.constant(0));

  std::string S = toString(M);
  EXPECT_NE(S.find("ld [x]"), std::string::npos);
  EXPECT_NE(S.find("st [x]"), std::string::npos);
  EXPECT_NE(S.find("func int @main"), std::string::npos);
}

TEST(IRTest, VerifierCatchesBrokenPhi) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *J = F->createBlock("j");
  IRBuilder B(A);
  B.br(J);
  IRBuilder BJ(J);
  PhiInst *P = BJ.phi(Type::Int, "p");
  // Wrong: claims an incoming edge from a block that is not a predecessor.
  P->addIncoming(M.constant(1), J);
  BJ.ret(P);

  DiagnosticEngine DE = test::checkFast(*F);
  EXPECT_TRUE(DE.hasErrors()) << diagnosticsToText(DE.diagnostics());
}

TEST(IRTest, VerifierCatchesUseBeforeDef) {
  Module M;
  Function *F = M.createFunction("f", Type::Int);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  IRBuilder B(A);
  B.br(B1);
  IRBuilder BB1(B1);
  Value *X = BB1.add(M.constant(1), M.constant(1));
  BB1.ret(X);
  // Sneak a use of X into block A, before its definition.
  IRBuilder BA(A);
  BA.setInsertPoint(A->terminator());
  BA.print(X);
  DiagnosticEngine DE = test::checkFast(*F);
  EXPECT_TRUE(DE.hasErrors()) << diagnosticsToText(DE.diagnostics());
}

} // namespace
