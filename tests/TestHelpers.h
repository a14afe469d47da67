//===- tests/TestHelpers.h - Shared test utilities -------------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#ifndef SRP_TESTS_TESTHELPERS_H
#define SRP_TESTS_TESTHELPERS_H

#include "analysis/StaticAnalysis.h"
#include "frontend/Lowering.h"
#include "ir/Module.h"
#include "ir/Printer.h"
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

} // namespace srp::test

#endif // SRP_TESTS_TESTHELPERS_H
