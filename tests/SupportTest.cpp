//===- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/JSON.h"
#include "support/RNG.h"
#include "support/UnionFind.h"
#include <gtest/gtest.h>
#include <set>

using namespace srp;

TEST(BitVectorTest, BasicSetTestReset) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVectorTest, SetAllRespectsSize) {
  BitVector BV(70);
  BV.setAll();
  EXPECT_EQ(BV.count(), 70u);
  BV.resetAll();
  EXPECT_TRUE(BV.none());
}

TEST(BitVectorTest, UnionIntersectSubtract) {
  BitVector A(100), B(100);
  A.set(3);
  A.set(50);
  B.set(50);
  B.set(99);

  BitVector U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_EQ(U.count(), 3u);
  EXPECT_FALSE(U.unionWith(B)); // no change the second time

  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));

  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(3));

  EXPECT_TRUE(A.intersects(B));
  BitVector C(100);
  C.set(7);
  EXPECT_FALSE(A.intersects(C));
}

TEST(BitVectorTest, FindFirstNextIteration) {
  BitVector BV(200);
  std::set<int> Expected = {5, 63, 64, 128, 199};
  for (int I : Expected)
    BV.set(static_cast<unsigned>(I));
  std::set<int> Seen;
  for (int I = BV.findFirst(); I >= 0;
       I = BV.findNext(static_cast<unsigned>(I)))
    Seen.insert(I);
  EXPECT_EQ(Seen, Expected);
}

TEST(BitVectorTest, ResizeGrowWithValue) {
  BitVector BV(10);
  BV.set(3);
  BV.resize(100, true);
  EXPECT_TRUE(BV.test(3));
  EXPECT_FALSE(BV.test(4)); // old bits keep their value
  EXPECT_TRUE(BV.test(10)); // new bits are 1
  EXPECT_TRUE(BV.test(99));
}

TEST(UnionFindTest, BasicUnions) {
  UnionFind UF(10);
  EXPECT_FALSE(UF.connected(1, 2));
  UF.unite(1, 2);
  UF.unite(2, 3);
  EXPECT_TRUE(UF.connected(1, 3));
  EXPECT_FALSE(UF.connected(1, 4));
  EXPECT_EQ(UF.find(1), UF.find(3));
}

TEST(UnionFindTest, GrowPreservesClasses) {
  UnionFind UF(4);
  UF.unite(0, 3);
  UF.grow(8);
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_FALSE(UF.connected(0, 7));
  UF.unite(3, 7);
  EXPECT_TRUE(UF.connected(0, 7));
}

TEST(UnionFindTest, TransitiveClosurePartition) {
  // Mirrors the paper's web example: {x0..x4} connected through two phis.
  UnionFind UF(6);
  UF.unite(0, 1); // phi(x0, x4) -> x1 style connections
  UF.unite(1, 4);
  UF.unite(2, 3);
  UF.unite(3, 4);
  EXPECT_TRUE(UF.connected(0, 2));
  EXPECT_FALSE(UF.connected(0, 5));
}

TEST(RNGTest, DeterministicForSeed) {
  RNG A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_EQ(A.next(), B.next());
  bool Diverged = false;
  for (int I = 0; I != 8; ++I)
    Diverged |= A.next() != C.next();
  EXPECT_TRUE(Diverged);
}

TEST(RNGTest, RangeBounds) {
  RNG R(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.range(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
  }
  for (int I = 0; I != 100; ++I)
    EXPECT_LT(R.below(17), 17u);
}

//===----------------------------------------------------------------------===
// json::parse numbers: the JSON grammar, with the whole token converted.
// Each malformed spelling below used to parse as a silently kept prefix.
//===----------------------------------------------------------------------===

namespace {
::testing::AssertionResult rejects(const std::string &Text) {
  json::Value V;
  std::string Err;
  if (json::parse(Text, V, Err))
    return ::testing::AssertionFailure() << "accepted '" << Text << "' as "
                                         << V.dump();
  if (Err.empty())
    return ::testing::AssertionFailure() << "no error for '" << Text << "'";
  return ::testing::AssertionSuccess();
}
} // namespace

TEST(JsonParseTest, RejectsMinusExpressionAsId) {
  EXPECT_TRUE(rejects(R"({"id": 7-3})"));
}
TEST(JsonParseTest, RejectsDoubleMinus) { EXPECT_TRUE(rejects("--1")); }
TEST(JsonParseTest, RejectsInnerMinus) { EXPECT_TRUE(rejects("1-2")); }
TEST(JsonParseTest, RejectsLeadingPlus) { EXPECT_TRUE(rejects("+1")); }
TEST(JsonParseTest, RejectsLeadingZero) { EXPECT_TRUE(rejects("01")); }
TEST(JsonParseTest, RejectsEmptyFraction) { EXPECT_TRUE(rejects("1.")); }
TEST(JsonParseTest, RejectsEmptyExponent) { EXPECT_TRUE(rejects("1e")); }
TEST(JsonParseTest, RejectsSignOnlyExponent) { EXPECT_TRUE(rejects("1e+")); }
TEST(JsonParseTest, RejectsSecondFraction) { EXPECT_TRUE(rejects("1.5.5")); }

TEST(JsonParseTest, AcceptsEveryGrammaticalForm) {
  struct Case {
    const char *Text;
    bool IsInt;
    double Want;
  } Cases[] = {
      {"0", true, 0},
      {"-0", true, 0},
      {"-12", true, -12},
      {"9223372036854775807", true, 9.223372036854775807e18},
      {"1.5", false, 1.5},
      {"-0.25e-2", false, -0.0025},
      {"1E+2", false, 100},
      {"2e3", false, 2000},
      {"9223372036854775808", false, 9.223372036854775808e18},
  };
  for (const Case &C : Cases) {
    json::Value V;
    std::string Err;
    ASSERT_TRUE(json::parse(C.Text, V, Err)) << C.Text << ": " << Err;
    EXPECT_EQ(V.isInt(), C.IsInt) << C.Text;
    EXPECT_DOUBLE_EQ(V.asDouble(), C.Want) << C.Text;
  }
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(R"({"id": 7, "xs": [-1, 2.5e1]})", V, Err)) << Err;
  EXPECT_EQ(V.get("id").asInt(), 7);
  EXPECT_EQ(V.get("xs").items()[1].asDouble(), 25.0);
}

TEST(JsonParseTest, OutOfRangeDoubleReadsAsIntDefault) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(R"({"id": 1e300, "neg": -1e19, "ok": -2.5})", V,
                          Err))
      << Err;
  EXPECT_EQ(V.get("id").asInt(-1), -1);
  EXPECT_EQ(V.get("neg").asInt(-1), -1);
  EXPECT_EQ(V.get("ok").asInt(-1), -2);
}
