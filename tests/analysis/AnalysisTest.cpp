//===- tests/analysis/AnalysisTest.cpp - Static analysis unit tests ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the static diagnostic engine: registry integrity,
/// identity-stage detection, the fix-it fixed point, and the error-clean
/// <=> isLegal agreement invariant on hand-picked sequences.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "dependence/DepAnalysis.h"
#include "driver/Script.h"
#include "ir/Parser.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

using namespace irlt;
using namespace irlt::analysis;

namespace {

LoopNest nest(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N.take();
}

TransformSequence script(const std::string &Text, unsigned NumLoops) {
  ErrorOr<TransformSequence> S = parseTransformScript(Text, NumLoops);
  EXPECT_TRUE(static_cast<bool>(S)) << S.message();
  return S.take();
}

const std::string RectDep = "do i = 1, n\n"
                            "  do j = 1, m\n"
                            "    a(i, j) = a(i - 1, j) + 1\n"
                            "  enddo\n"
                            "enddo\n";

const std::string Triangular = "do i = 1, n\n"
                               "  do j = 1, i\n"
                               "    a(i, j) = a(i, j) + 1\n"
                               "  enddo\n"
                               "enddo\n";

TEST(RuleRegistry, ErrorRulesFirstUniqueIdsAndCitations) {
  const std::vector<RuleInfo> &Rules = ruleRegistry();
  ASSERT_FALSE(Rules.empty());
  bool SeenWarning = false;
  std::set<std::string> Ids;
  for (const RuleInfo &R : Rules) {
    EXPECT_TRUE(Ids.insert(R.Id).second) << "duplicate rule id " << R.Id;
    EXPECT_NE(std::string(R.Citation), "") << R.Id << " has no citation";
    EXPECT_NE(std::string(R.Title), "") << R.Id << " has no title";
    if (R.Severity == FindingSeverity::Warning)
      SeenWarning = true;
    else
      EXPECT_FALSE(SeenWarning) << "error rule " << R.Id
                                << " listed after a warning rule";
  }
  // The documented core set must exist.
  for (const char *Id :
       {"E100", "E101", "E102", "E103", "E104", "E105", "E106", "W200",
        "W201", "W202", "W203", "W204"})
    EXPECT_NE(findRule(Id), nullptr) << Id;
  EXPECT_EQ(findRule("E999"), nullptr);
}

TEST(IdentityStage, DetectsIdentityTemplates) {
  EXPECT_TRUE(
      isIdentityStage(*makeUnimodular(2, UnimodularMatrix::identity(2))));
  EXPECT_TRUE(isIdentityStage(
      *makeReversePermute(2, {false, false}, {0, 1})));
  EXPECT_TRUE(isIdentityStage(*makeParallelize(2, {false, false})));

  EXPECT_FALSE(isIdentityStage(
      *makeReversePermute(2, {false, false}, {1, 0})));
  EXPECT_FALSE(isIdentityStage(*makeParallelize(2, {true, false})));
  EXPECT_FALSE(
      isIdentityStage(*makeUnimodular(2, UnimodularMatrix::skew(2, 0, 1, 1))));
}

TEST(Fixit, StripsIdentityStagesToAFixedPoint) {
  // interchange ; interchange fuses to an identity ReversePermute, which
  // must itself be stripped - the fix-it iterates to a fixed point.
  TransformSequence Seq =
      script("interchange 1 2\ninterchange 1 2\nparallelize 1", 2);
  TransformSequence Fixed = fixitSequence(Seq);
  ASSERT_EQ(Fixed.size(), 1u);
  EXPECT_EQ(Fixed.steps()[0]->kind(), TransformTemplate::Kind::Parallelize);
}

TEST(Fixit, IdentityInputYieldsEmptySequence) {
  TransformSequence Seq = script("interchange 1 2\ninterchange 1 2", 2);
  EXPECT_EQ(fixitSequence(Seq).size(), 0u);
}

TEST(Analyze, CleanLegalScriptHasNoFindings) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  EXPECT_EQ(R.errorCount(), 0u);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_FALSE(R.Fixed.has_value());
}

TEST(Analyze, AgreesWithIsLegalOnSamples) {
  struct Sample {
    std::string Nest;
    std::string Script;
  };
  const Sample Samples[] = {
      {RectDep, "interchange 1 2"},
      {RectDep, "reverse 1"},
      {RectDep, "parallelize 1"},
      {RectDep, "parallelize 2"},
      {Triangular, "interchange 1 2"},
      {Triangular, "coalesce 1 2"},
      {Triangular, "block 1 2 4 4"},
      {Triangular, "skew 2 1 1\nunimodular 1 0 / -1 1"},
      {RectDep, "stripmine 1 4\ninterchange 2 3"},
  };
  for (const Sample &S : Samples) {
    LoopNest N = nest(S.Nest);
    DepSet D = analyzeDependences(N);
    TransformSequence Seq = script(S.Script, N.numLoops());
    LegalityResult L = isLegal(Seq, N, D);
    AnalysisReport R = analyzeSequence(Seq, N, D);
    EXPECT_EQ(L.Legal, !R.hasErrors())
        << "analyzer disagrees with isLegal on <" << S.Script << ">: "
        << L.Reason;
  }
}

TEST(Analyze, ErrorFindingCarriesProvenance) {
  LoopNest N = nest(Triangular);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  ASSERT_EQ(R.errorCount(), 1u);
  const Finding &F = R.Findings.front();
  EXPECT_EQ(F.RuleId, "E101");
  EXPECT_EQ(F.Stage, 1u);
  EXPECT_EQ(F.TemplateName, "ReversePermute");
  EXPECT_EQ(F.Lattice, "linear");
  EXPECT_NE(F.Bounds, "");
  EXPECT_NE(F.Citation, "");
}

TEST(Analyze, NoLintOptionSuppressesWarningsOnly) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  TransformSequence Seq =
      script("interchange 1 2\ninterchange 1 2\nparallelize 1", 2);
  AnalysisReport Full = analyzeSequence(Seq, N, D);
  EXPECT_GT(Full.warningCount(), 0u);
  EXPECT_TRUE(Full.Fixed.has_value());

  AnalysisOptions NoLint;
  NoLint.Lint = false;
  AnalysisReport Errors = analyzeSequence(Seq, N, D, NoLint);
  EXPECT_EQ(Errors.warningCount(), 0u);
  EXPECT_EQ(Errors.errorCount(), Full.errorCount());
}

TEST(Analyze, ToDiagsPrefixesRuleIds) {
  LoopNest N = nest(Triangular);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  std::vector<Diag> Diags = toDiags(R);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Severity, DiagSeverity::Error);
  EXPECT_EQ(Diags[0].Stage, 1u);
  EXPECT_EQ(Diags[0].Message.rfind("[E101] ", 0), 0u) << Diags[0].Message;
}

TEST(Analyze, RegistryVersionCoversCrossCheckRules) {
  // Version 2 added W205/W206; the version must move with the registry so
  // --json consumers can trust rule semantics.
  EXPECT_EQ(ruleRegistryVersion(), 2u);
  EXPECT_NE(findRule("W205"), nullptr);
  EXPECT_NE(findRule("W206"), nullptr);
  EXPECT_EQ(findRule("W205")->Severity, FindingSeverity::Warning);
  EXPECT_EQ(findRule("W206")->Severity, FindingSeverity::Warning);
}

TEST(Analyze, CrossCheckDepsReportsPrecisionGapAsW205) {
  // Strided-outer triangular nest where the production analyzer keeps a
  // (0, 2) vector the exact backend disproves (the inner range is too
  // narrow): W205 with the vector as provenance, and only when the
  // cross-check option is on (it is costly and off by default).
  LoopNest N = nest("do i = 0, 5, 2\n"
                    "  do j = 3, i\n"
                    "    a(i, j) = a(i, j) + a(i - 1, j + 1) + a(i, j - 2)\n"
                    "  enddo\n"
                    "enddo\n");
  DepSet D = analyzeDependences(N);
  TransformSequence Seq;

  AnalysisReport Off = analyzeSequence(Seq, N, D);
  for (const Finding &F : Off.Findings) {
    EXPECT_NE(F.RuleId, "W205") << F.Message;
    EXPECT_NE(F.RuleId, "W206") << F.Message;
  }

  AnalysisOptions AO;
  AO.CrossCheckDeps = true;
  AnalysisReport On = analyzeSequence(Seq, N, D, AO);
  bool SawW205 = false;
  for (const Finding &F : On.Findings) {
    EXPECT_NE(F.RuleId, "W206") << F.Message;
    if (F.RuleId == "W205") {
      SawW205 = true;
      EXPECT_EQ(F.DepVector, "(0, 2)");
      EXPECT_EQ(F.Severity, FindingSeverity::Warning);
    }
  }
  EXPECT_TRUE(SawW205);
  EXPECT_EQ(On.errorCount(), 0u);
}

TEST(Analyze, CrossCheckDepsCleanOnAgreeingNest) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  AnalysisOptions AO;
  AO.CrossCheckDeps = true;
  AnalysisReport R = analyzeSequence(TransformSequence(), N, D, AO);
  for (const Finding &F : R.Findings) {
    EXPECT_NE(F.RuleId, "W205") << F.Message;
    EXPECT_NE(F.RuleId, "W206") << F.Message;
  }
}

} // namespace
