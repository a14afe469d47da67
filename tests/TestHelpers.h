//===- tests/TestHelpers.h - Shared test utilities -------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#ifndef SRP_TESTS_TESTHELPERS_H
#define SRP_TESTS_TESTHELPERS_H

#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/RNG.h"
#include <gtest/gtest.h>
#include <memory>
#include <string>

namespace srp::test {

/// Compiles Mini-C source, failing the test on any diagnostic.
inline std::unique_ptr<Module> compileOrDie(const std::string &Source) {
  std::vector<std::string> Errors;
  auto M = compileMiniC(Source, Errors);
  for (const auto &E : Errors)
    ADD_FAILURE() << "compile error: " << E;
  if (!M)
    ADD_FAILURE() << "compilation produced no module";
  return M;
}

/// Runs the Fast-strictness checks (the default between-pass
/// verification) on \p U, a Function or a Module.
template <typename IRUnit> DiagnosticEngine checkFast(IRUnit &U) {
  DiagnosticEngine DE;
  runChecks(U, DE, Strictness::Fast);
  return DE;
}

/// Asserts \p U verifies cleanly, dumping IR on failure.
template <typename IRUnit>
void expectValid(IRUnit &U, const char *When = "") {
  DiagnosticEngine DE = checkFast(U);
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      ADD_FAILURE() << When << ": " << toText(D);
  if (DE.hasErrors())
    ADD_FAILURE() << "IR:\n" << toString(U);
}

/// Builds a random function CFG: N blocks, block 0 the entry, every block
/// ends in ret / br / condbr to random targets. Unreachable blocks are
/// possible and must be tolerated by the analyses.
inline std::unique_ptr<Module> randomCFG(uint64_t Seed, unsigned N) {
  RNG Rand(Seed);
  auto M = std::make_unique<Module>("randcfg");
  Function *F = M->createFunction("f", Type::Void);
  std::vector<BasicBlock *> Blocks;
  for (unsigned I = 0; I != N; ++I)
    Blocks.push_back(F->createBlock("b" + std::to_string(I)));
  for (unsigned I = 0; I != N; ++I) {
    IRBuilder B(Blocks[I]);
    unsigned Kind = static_cast<unsigned>(Rand.below(10));
    if (Kind < 2 || N == 1) {
      B.ret();
    } else if (Kind < 6) {
      B.br(Blocks[Rand.below(N)]);
    } else {
      BasicBlock *T = Blocks[Rand.below(N)];
      BasicBlock *E = Blocks[Rand.below(N)];
      if (T == E) {
        B.br(T);
      } else {
        B.condBr(M->constant(static_cast<int64_t>(Rand.below(2))), T, E);
      }
    }
  }
  return M;
}

} // namespace srp::test

#endif // SRP_TESTS_TESTHELPERS_H
