//===- tests/CorpusTest.cpp - Corpus harness tests ------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the differential corpus harness (gen/Corpus.h): the
/// single-program oracle stack, the sweep driver with coverage feedback,
/// and — the remarks-coverage meta-test — that a smoke-sized sweep
/// exercises every promoter and every §4.3 WebPromotion rejection reason.
///
//===----------------------------------------------------------------------===//

#include "gen/Corpus.h"
#include "support/JSON.h"
#include <gtest/gtest.h>

using namespace srp;
using namespace srp::gen;

namespace {

TEST(CorpusTest, CleanProgramPasses) {
  const char *Src = "int g = 1;\n"
                    "void main() {\n"
                    "  int i;\n"
                    "  for (i = 0; i < 10; i++) { g = g + i; }\n"
                    "  print(g);\n"
                    "}\n";
  CheckResult R = checkSource(Src);
  EXPECT_TRUE(R.Ok) << R.Signature << ": " << R.Detail;
  EXPECT_TRUE(R.Signature.empty());
}

TEST(CorpusTest, BrokenProgramHasStableSignature) {
  // Undefined variable: sema rejects it, the control job fails.
  CheckResult R = checkSource("void main() { nope = 1; }\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Signature, "pipeline-error:none");
  EXPECT_FALSE(R.Detail.empty());
}

TEST(CorpusTest, RequiredCoverageKeysAreWellFormed) {
  ASSERT_EQ(requiredPromoters().size(), 4u);
  ASSERT_EQ(requiredRejections().size(), 4u);
  // The §4.3 rejection set, verbatim.
  EXPECT_EQ(requiredRejections()[0], "promotion:NoMemoryWork");
  EXPECT_EQ(requiredRejections()[1], "promotion:UnprofitableWeb");
  EXPECT_EQ(requiredRejections()[2], "promotion:StoresOnlyNotEliminated");
  EXPECT_EQ(requiredRejections()[3], "promotion:MultipleLiveIns");
  // Every required key has a steering target; the hardest one must map
  // to the profile that can actually build irreducible live-in splits.
  EXPECT_EQ(profileForCoverageKey("promotion:MultipleLiveIns"),
            ShapeProfile::MultiLiveIn);
  for (const auto &K : requiredPromoters())
    (void)profileForCoverageKey(K); // total function, no crash
}

TEST(CorpusTest, CoverageCountsMergeAndMissing) {
  CoverageCounts A, B;
  A.Promoters["promotion:PromotedWeb"] = 2;
  B.Promoters["promotion:PromotedWeb"] = 3;
  B.Rejections["promotion:MultipleLiveIns"] = 1;
  A.merge(B);
  EXPECT_EQ(A.promoter("promotion:PromotedWeb"), 5u);
  EXPECT_EQ(A.rejection("promotion:MultipleLiveIns"), 1u);
  std::vector<std::string> Missing = A.missingRequired();
  // Everything except the two keys above is still missing.
  EXPECT_EQ(Missing.size(),
            requiredPromoters().size() + requiredRejections().size() - 2);
}

TEST(CorpusTest, SmallSweepIsCleanAndDeterministic) {
  CorpusOptions Opts;
  Opts.FirstSeed = 1;
  Opts.Count = 8;
  Opts.BatchSize = 4;
  Opts.Threads = 2;
  CorpusReport R = runCorpus(Opts);
  EXPECT_EQ(R.NumPrograms, 8u);
  for (const CorpusFailure &F : R.Failures)
    ADD_FAILURE() << "seed " << F.Seed << " ("
                  << shapeProfileName(F.Profile) << "): " << F.Signature
                  << "\n"
                  << F.Detail << "\nprogram:\n"
                  << F.Source;
  EXPECT_EQ(R.NumPassed, 8u);
  // Coverage accounting ran: promotion decisions were recorded.
  EXPECT_FALSE(R.Coverage.Promoters.empty() &&
               R.Coverage.Rejections.empty());
  uint64_t ProfileSum = 0;
  for (const auto &[K, V] : R.ProfilePrograms)
    ProfileSum += V;
  EXPECT_EQ(ProfileSum, 8u);

  // Same options, same verdicts and coverage (the sweep is deterministic).
  CorpusReport R2 = runCorpus(Opts);
  EXPECT_EQ(R2.NumPassed, R.NumPassed);
  EXPECT_EQ(R2.Coverage.Promoters, R.Coverage.Promoters);
  EXPECT_EQ(R2.Coverage.Rejections, R.Coverage.Rejections);
  EXPECT_EQ(R2.ProfilePrograms, R.ProfilePrograms);
}

// The -json report must stay valid JSON whatever bytes a failure's
// signature or detail carries (oracle details quote program output and
// IR text verbatim).
TEST(CorpusTest, JsonReportRoundTripsControlBytes) {
  const std::string Nasty = "q\"b\\s\nn\tt\rr\x01 u\x1f h\xc3\xa9";
  CorpusReport R;
  R.NumPrograms = 2;
  R.NumPassed = 1;
  R.ProfilePrograms["loops"] = 2;
  R.Coverage.Promoters["promotion:PromotedWeb"] = 3;
  CorpusFailure F;
  F.Seed = 17;
  F.Profile = ShapeProfile::Default;
  F.Signature = "oracle-mismatch:" + Nasty;
  F.Detail = Nasty;
  R.Failures.push_back(F);

  json::Writer W;
  corpusReportToJson(W, R, 5);
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::parse(W.str(), Doc, Err)) << Err << "\n" << W.str();
  EXPECT_EQ(Doc.get("programs").asInt(), 2);
  EXPECT_EQ(Doc.get("first_seed").asInt(), 5);
  EXPECT_EQ(Doc.get("profiles").get("loops").asInt(), 2);
  EXPECT_EQ(Doc.get("rejections").size(), 0u);
  ASSERT_EQ(Doc.get("failures").items().size(), 1u);
  const json::Value &Got = Doc.get("failures").items()[0];
  EXPECT_EQ(Got.get("seed").asInt(), 17);
  EXPECT_EQ(Got.get("signature").asString(), F.Signature);
  EXPECT_EQ(Got.get("detail").asString(), Nasty);
  EXPECT_NE(W.str().find("\"rejections\": {}"), std::string::npos)
      << W.str();
}

TEST(CorpusTest, ProgressCallbackSeesEveryBatch) {
  CorpusOptions Opts;
  Opts.Count = 6;
  Opts.BatchSize = 2;
  Opts.Threads = 2;
  Opts.Check.EngineParity = false;
  Opts.Check.Verify = Strictness::Fast;
  unsigned Calls = 0, LastDone = 0;
  runCorpus(Opts, [&](unsigned Done, unsigned Total, const CorpusReport &) {
    ++Calls;
    EXPECT_EQ(Total, 6u);
    EXPECT_GT(Done, LastDone);
    LastDone = Done;
  });
  EXPECT_EQ(Calls, 3u);
  EXPECT_EQ(LastDone, 6u);
}

// The remarks-coverage meta-test (this PR's satellite contract): a
// smoke-sized coverage-guided sweep must exercise every promoter
// (promotion, mem2reg, loop-promotion, superblock) and every §4.3
// rejection reason (NoMemoryWork, UnprofitableWeb,
// StoresOnlyNotEliminated, MultipleLiveIns). If a generator or steering
// change ever makes one unreachable, this fails — the fuzz suite would
// otherwise silently stop testing that code path.
TEST(CorpusCoverageTest, SmokeSweepExercisesEveryPromoterAndRejection) {
  CorpusOptions Opts;
  Opts.FirstSeed = 1;
  Opts.Count = 50;
  Opts.BatchSize = 25;
  Opts.Check.EngineParity = false;     // coverage, not parity, is at stake
  Opts.Check.Verify = Strictness::Fast;
  CorpusReport R = runCorpus(Opts);
  for (const CorpusFailure &F : R.Failures)
    ADD_FAILURE() << "seed " << F.Seed << ": " << F.Signature << "\n"
                  << F.Detail;
  std::vector<std::string> Missing = R.Coverage.missingRequired();
  for (const std::string &K : Missing)
    ADD_FAILURE() << "required coverage key never fired: " << K;
  EXPECT_TRUE(Missing.empty());
}

// The full fuzz budget at full strictness with parity — minutes of work,
// the heavy tier's slice (ctest -L heavy also runs srp_corpus_full, the
// same sweep through the srp-corpus CLI).
TEST(CorpusHeavyTest, TwoHundredSeedSweepCleanWithFullCoverage) {
  CorpusOptions Opts;
  Opts.FirstSeed = 1;
  Opts.Count = 200;
  Opts.BatchSize = 32;
  CorpusReport R = runCorpus(Opts);
  EXPECT_EQ(R.NumPrograms, 200u);
  for (const CorpusFailure &F : R.Failures)
    ADD_FAILURE() << "seed " << F.Seed << " ("
                  << shapeProfileName(F.Profile) << "): " << F.Signature
                  << "\n"
                  << F.Detail << "\nprogram:\n"
                  << F.Source;
  for (const std::string &K : R.Coverage.missingRequired())
    ADD_FAILURE() << "required coverage key never fired: " << K;
}

} // namespace
