//===- tests/search/CostModelDifferentialTest.cpp - Fast vs reference ----===//
//
// Pins the cost model's production measurement (the lowered access
// program, search/AccessProgram.h) against its reference (the
// interpreter plus trace replay): for every input both must be nullopt
// or the same double, bit for bit. Inputs are the example nests under
// the identity and every one- and two-step candidate the search
// enumerates, a seeded fuzz corpus, and targeted cases for each outcome
// class and for the nests only the reference path can measure.
//
//===----------------------------------------------------------------------===//

#include "driver/Script.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "search/Candidates.h"
#include "search/CostModel.h"

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>

using namespace irlt;
using namespace irlt::search;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N ? *N : LoopNest();
}

LoopNest readExample(const std::string &Name) {
  std::ifstream In(std::string(IRLT_EXAMPLES_DIR) + "/" + Name + ".nest");
  EXPECT_TRUE(In.good()) << Name;
  std::stringstream SS;
  SS << In.rdbuf();
  return parse(SS.str());
}

std::string render(const std::optional<double> &M) {
  if (!M)
    return "nullopt";
  std::ostringstream OS;
  OS.precision(17);
  OS << *M;
  return OS.str();
}

/// Production and reference agree on \p Seq: both nullopt, or the same
/// bits. Keys are the plain rendering so distinct sequences never share
/// a memo entry. \returns the production value.
std::optional<double> expectAgree(CostModel &CM, const TransformSequence &Seq,
                                  const std::string &Context) {
  std::optional<double> Ref = CM.referenceMissRatio(Seq);
  std::optional<double> Prod = CM.missRatio(Seq, Seq.str());
  bool Same = Prod.has_value() == Ref.has_value() &&
              (!Prod || std::bit_cast<uint64_t>(*Prod) ==
                            std::bit_cast<uint64_t>(*Ref));
  EXPECT_TRUE(Same) << Context << " <" << Seq.str()
                    << ">: production " << render(Prod) << ", reference "
                    << render(Ref);
  return Prod;
}

/// One targeted case: \p Src under the identity with \p Params (free
/// symbols default to 24) and \p MaxInstances.
struct Outcome {
  std::optional<double> Miss;
  uint64_t Fallbacks;
};
Outcome measure(const std::string &Src, uint64_t MaxInstances = 1'000'000,
                std::map<std::string, int64_t> Params = {}) {
  LoopNest Nest = parse(Src);
  CostModelOptions CO;
  CO.Params = CostModel::defaultBindings(Nest);
  for (const auto &[K, V] : Params)
    CO.Params[K] = V;
  CO.MaxInstances = MaxInstances;
  CostModel CM(Nest, CO);
  EXPECT_TRUE(CM.unusableReason().empty()) << CM.unusableReason();
  std::optional<double> M = expectAgree(CM, TransformSequence(), Src);
  return Outcome{M, CM.referenceFallbacks()};
}

//===----------------------------------------------------------------------===
// The example nests: identity, every depth-1 and every depth-2 candidate.
//===----------------------------------------------------------------------===

struct ExampleCase {
  const char *Nest;
  unsigned Depth;
};

class ExampleCandidates : public ::testing::TestWithParam<ExampleCase> {};

TEST_P(ExampleCandidates, ProductionMatchesReferenceWithoutFallback) {
  const ExampleCase &EC = GetParam();
  LoopNest Nest = readExample(EC.Nest);
  CostModelOptions CO;
  CO.Params = CostModel::defaultBindings(Nest);
  // Two-step sequences on the 3-deep nest number in the thousands; the
  // interpreter side of the comparison runs them at a smaller extent
  // (still past the one-line-per-8-elements point where order matters
  // for a tiny cache: the geometry below has four 2-way sets).
  if (EC.Depth == 2 && Nest.numLoops() > 2) {
    for (auto &[K, V] : CO.Params)
      V = 6;
    CO.Cache = CacheConfig{256, 32, 2};
  }
  CostModel CM(Nest, CO);
  ASSERT_TRUE(CM.unusableReason().empty());

  CandidateOptions Cands; // the search's defaults
  std::vector<TransformSequence> Seqs;
  if (EC.Depth == 1)
    Seqs.push_back(TransformSequence());
  for (const TemplateRef &T1 : stepCandidates(Nest.numLoops(), Cands)) {
    if (EC.Depth == 1) {
      Seqs.push_back(TransformSequence::of({T1}));
      continue;
    }
    for (const TemplateRef &T2 : stepCandidates(T1->outputSize(), Cands))
      Seqs.push_back(TransformSequence::of({T1, T2}));
  }
  unsigned Measured = 0;
  for (const TransformSequence &Seq : Seqs)
    Measured += expectAgree(CM, Seq, EC.Nest).has_value();
  EXPECT_GT(Measured, 0u);
  // The lowering accepts every candidate of the corpus: the reference
  // path is a fallback, not something the search actually runs on.
  EXPECT_EQ(CM.referenceFallbacks(), 0u);
}

std::string exampleName(const ::testing::TestParamInfo<ExampleCase> &I) {
  return std::string(I.param.Nest) + "_depth" + std::to_string(I.param.Depth);
}

INSTANTIATE_TEST_SUITE_P(
    CostModelDifferential, ExampleCandidates,
    ::testing::Values(ExampleCase{"coalesce", 1}, ExampleCase{"coalesce", 2},
                      ExampleCase{"interchange", 1},
                      ExampleCase{"interchange", 2}, ExampleCase{"matmul", 1},
                      ExampleCase{"matmul", 2}, ExampleCase{"parallel", 1},
                      ExampleCase{"parallel", 2}, ExampleCase{"stencil", 1},
                      ExampleCase{"stencil", 2}, ExampleCase{"triangular", 1},
                      ExampleCase{"triangular", 2}),
    exampleName);

//===----------------------------------------------------------------------===
// A seeded fuzz corpus: the generated nests (overflow-mode bounds and
// opaque calls included) under the identity and their generated scripts.
//===----------------------------------------------------------------------===

TEST(CostModelDifferential, FuzzCorpusAgrees) {
  fuzz::FuzzOptions FO;
  FO.Seed = 17;
  fuzz::DifferentialOptions DO = fuzz::DifferentialOptions::defaults();
  unsigned Nests = 0, Scripts = 0, Measured = 0;
  for (uint64_t I = 0; I < 600; ++I) {
    fuzz::FuzzCase C = fuzz::generateCase(FO, I);
    ErrorOr<LoopNest> N = parseLoopNest(C.Nest.render());
    ASSERT_TRUE(static_cast<bool>(N)) << N.message();
    CostModelOptions CO;
    CO.Params = DO.Bindings.front();
    // Overflow-mode nests run until the budget stops them; a fortieth of
    // the fuzzer's budget keeps that class cheap without removing it.
    CO.MaxInstances = DO.MaxInstances / 40;
    CostModel CM(*N, CO);
    if (!CM.unusableReason().empty())
      continue;
    ++Nests;
    std::string Context = "fuzz case " + std::to_string(I);
    Measured += expectAgree(CM, TransformSequence(), Context).has_value();
    if (C.CorruptedLines)
      continue;
    ErrorOr<TransformSequence> Seq =
        parseTransformScript(fuzz::joinScript(C.Script), N->numLoops());
    if (!Seq)
      continue;
    ++Scripts;
    Measured += expectAgree(CM, *Seq, Context).has_value();
    EXPECT_EQ(CM.referenceFallbacks(), 0u) << Context;
  }
  EXPECT_GE(Nests, 500u);
  EXPECT_GE(Scripts, 300u);
  EXPECT_GE(Measured, 500u);
  // Budget and overflow outcomes are part of the corpus too.
  EXPECT_GT(Nests + Scripts - Measured, 10u);
}

//===----------------------------------------------------------------------===
// Targeted outcome classes.
//===----------------------------------------------------------------------===

TEST(CostModelDifferential, RhsOverflowHasNoCost) {
  Outcome O = measure("do i = 1, n\n"
                      "  a(i) = a(i - 1) + 4000000000000000000\n"
                      "enddo\n");
  EXPECT_FALSE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, BoundOverflowHasNoCost) {
  // The saturated bound would run until the budget stops it.
  Outcome O = measure("do i = 1, n * 4000000000000000000\n"
                      "  a(i) = 1\n"
                      "enddo\n",
                      1000);
  EXPECT_FALSE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, SubscriptOverflowHasNoCost) {
  Outcome O = measure("do i = 1, n\n"
                      "  a(i * 4000000000000000000) = 1\n"
                      "enddo\n");
  EXPECT_FALSE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, InstanceBudgetHasNoCost) {
  const char *Matmul = "arrays B, C\n"
                       "do i = 1, n\n"
                       "  do j = 1, n\n"
                       "    do k = 1, n\n"
                       "      A(i, j) += B(i, k) * C(k, j)\n"
                       "    enddo\n"
                       "  enddo\n"
                       "enddo\n";
  EXPECT_FALSE(measure(Matmul, 1000).Miss.has_value());
  // Exactly at the budget still measures.
  EXPECT_TRUE(measure(Matmul, 24 * 24 * 24 + 24 * 24 + 24).Miss.has_value());
}

TEST(CostModelDifferential, HeaderBudgetOverZeroTripInnerLoop) {
  const char *Src = "do i = 1, n\n"
                    "  do j = 1, 0\n"
                    "    a(i, j) = 1\n"
                    "  enddo\n"
                    "enddo\n";
  EXPECT_FALSE(measure(Src, 10).Miss.has_value());
  Outcome O = measure(Src, 100);
  ASSERT_TRUE(O.Miss.has_value());
  EXPECT_EQ(*O.Miss, 0.0);
}

TEST(CostModelDifferential, ArityMismatchHasNoCost) {
  EXPECT_FALSE(measure("do i = 1, n\n"
                       "  a(i) = a(i, 1) + 1\n"
                       "enddo\n")
                   .Miss.has_value());
  // ... unless nothing executes: no access, no layout needed.
  Outcome O = measure("do i = 1, 0\n"
                      "  a(i) = a(i, 1) + 1\n"
                      "enddo\n");
  ASSERT_TRUE(O.Miss.has_value());
  EXPECT_EQ(*O.Miss, 0.0);
}

TEST(CostModelDifferential, ZeroTripNestCostsZero) {
  Outcome O = measure("do i = 1, n\n"
                      "  do j = i + 1, i\n"
                      "    a(i, j) = a(j, i)\n"
                      "  enddo\n"
                      "enddo\n");
  ASSERT_TRUE(O.Miss.has_value());
  EXPECT_EQ(*O.Miss, 0.0);
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, MinMaxDivModBounds) {
  Outcome O = measure(
      "do i = 1, n\n"
      "  do j = max(1, i - 3), min(n, (i + 7) / 2)\n"
      "    a(mod(i, 5) + 1, j) = a(i, j / 3 + 1) + min(i, j, 4) - max(j, 2)\n"
      "  enddo\n"
      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, NegativeSteps) {
  Outcome O = measure("do i = n, 1, -1\n"
                      "  do j = n, i, -3\n"
                      "    a(i, j) = a(j, i) + a(i, n - j + 1)\n"
                      "  enddo\n"
                      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, BuiltinFunctions) {
  Outcome O = measure(
      "arrays b\n"
      "do i = 1, n\n"
      "  do j = 1, sqrt(i * 10)\n"
      "    a(i, abs(j - 5) + 1) = sgn(a(i, j) - 3) + abs(b(j) - i) + sqrt(i)\n"
      "  enddo\n"
      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

TEST(CostModelDifferential, ReadsFeedValuesAcrossStatements) {
  Outcome O = measure("arrays b\n"
                      "do i = 2, n\n"
                      "  do j = 1, n\n"
                      "    b(j) = a(i - 1, j) + j\n"
                      "    a(i, j) = b(j) * 3 - a(i - 1, j)\n"
                      "  enddo\n"
                      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 0u);
}

//===----------------------------------------------------------------------===
// Nests only the reference path measures.
//===----------------------------------------------------------------------===

TEST(CostModelDifferential, ArrayReadInSubscriptUsesReference) {
  Outcome O = measure("arrays idx\n"
                      "do i = 1, n\n"
                      "  a(i) = a(idx(i) + 1) + 1\n"
                      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 1u);
  O = measure("arrays idx\n"
              "do i = 1, n\n"
              "  a(idx(i) + i) = i\n"
              "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 1u);
}

TEST(CostModelDifferential, ArrayReadInBoundUsesReference) {
  Outcome O = measure("arrays b\n"
                      "do i = 1, n\n"
                      "  do j = 1, b(i) + 3\n"
                      "    a(i, j) = a(i, j) + 1\n"
                      "  enddo\n"
                      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 1u);
}

TEST(CostModelDifferential, StoreAboveCellCapUsesReference) {
  Outcome O = measure("do i = 1, n\n"
                      "  a(i * 1000000) = a(i) + 1\n"
                      "enddo\n");
  EXPECT_TRUE(O.Miss.has_value());
  EXPECT_EQ(O.Fallbacks, 1u);
}

} // namespace
