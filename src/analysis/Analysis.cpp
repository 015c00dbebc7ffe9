//===- analysis/Analysis.cpp - Static diagnostics for scripts ------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "deps/CrossCheck.h"
#include "deps/DepOracle.h"
#include "legality/IncrementalEngine.h"
#include "support/Casting.h"
#include "support/MathUtils.h"
#include "transform/Templates.h"
#include "transform/TypeState.h"

#include <cstdlib>

using namespace irlt;
using namespace irlt::analysis;

const char *irlt::analysis::severityName(FindingSeverity S) {
  return S == FindingSeverity::Error ? "error" : "warning";
}

const std::vector<RuleInfo> &irlt::analysis::ruleRegistry() {
  static const std::vector<RuleInfo> Registry = {
      {"E100", FindingSeverity::Error,
       "final dependence vector admits a lexicographically negative tuple",
       "Table 2; Section 3.2"},
      {"E101", FindingSeverity::Error,
       "Table 3 loop-bounds precondition violated", "Table 3; Section 4.1"},
      {"E102", FindingSeverity::Error,
       "Table 4 loop-bounds precondition violated", "Table 4; Section 4.2"},
      {"E103", FindingSeverity::Error,
       "anchor-dependence side condition violated",
       "Definition 3.4; DESIGN.md section 5"},
      {"E104", FindingSeverity::Error,
       "coefficient arithmetic overflows the int64 range",
       "support/MathUtils.h saturation"},
      {"E105", FindingSeverity::Error,
       "bounds pipeline failed to apply the stage", "Section 4"},
      {"E106", FindingSeverity::Error,
       "stage arity does not match the current nest", "Section 2"},
      {"W200", FindingSeverity::Warning,
       "adjacent stages fold into one (the reduced() peephole)",
       "Section 2 efficiency note"},
      {"W201", FindingSeverity::Warning, "identity stage has no effect",
       "Section 2"},
      {"W202", FindingSeverity::Warning,
       "dependence direction information lost before a later Parallelize",
       "Table 2; Section 3.1"},
      {"W203", FindingSeverity::Warning,
       "generated loop bounds degrade to nonlinear", "Tables 3-4; Section 4.1"},
      {"W204", FindingSeverity::Warning,
       "saturation-risk coefficient magnitude in bounds",
       "support/MathUtils.h"},
      {"W205", FindingSeverity::Warning,
       "dependence analysis is conservative vs the exact backend",
       "deps/CrossCheck.h; docs/DEPENDENCE.md"},
      {"W206", FindingSeverity::Warning,
       "dependence analysis under-reports vs the exact backend",
       "deps/CrossCheck.h; docs/DEPENDENCE.md"},
  };
  return Registry;
}

unsigned irlt::analysis::ruleRegistryVersion() { return 2; }

const RuleInfo *irlt::analysis::findRule(std::string_view Id) {
  for (const RuleInfo &R : ruleRegistry())
    if (Id == R.Id)
      return &R;
  return nullptr;
}

Diag Finding::toDiag() const {
  Diag D("[" + RuleId + "] " + Message);
  D.Severity = Severity == FindingSeverity::Error ? DiagSeverity::Error
                                                  : DiagSeverity::Warning;
  if (Stage)
    D.atStage(Stage);
  if (!TemplateName.empty())
    D.inTemplate(TemplateName);
  return D;
}

unsigned AnalysisReport::errorCount() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Severity == FindingSeverity::Error;
  return N;
}

unsigned AnalysisReport::warningCount() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Severity == FindingSeverity::Warning;
  return N;
}

namespace {

Finding makeFinding(const char *Id) {
  const RuleInfo *R = findRule(Id);
  Finding F;
  F.RuleId = Id;
  F.Severity = R->Severity;
  F.Citation = R->Citation;
  return F;
}

/// Templates whose bounds rules live in Table 4 (the splitting templates;
/// StripMine is the Kind::Custom extension of the Block decomposition).
bool usesTable4(TransformTemplate::Kind K) {
  using Kind = TransformTemplate::Kind;
  return K == Kind::Block || K == Kind::Interleave || K == Kind::Custom;
}

/// Where in a loop header the worst-typed expression sits.
enum class HeaderExpr { Lower, Upper, Step };

const char *headerExprName(HeaderExpr E) {
  switch (E) {
  case HeaderExpr::Lower:
    return "lower bound";
  case HeaderExpr::Upper:
    return "upper bound";
  case HeaderExpr::Step:
    return "step";
  }
  return "?";
}

/// The worst (lattice-highest) classification in \p State over every loop
/// header expression with respect to every index position, with the
/// argmax for attribution.
BoundType stateWorst(const NestTypeState &State, unsigned *WorstLoop = nullptr,
                     HeaderExpr *WorstExpr = nullptr) {
  BoundType W = BoundType::Const;
  for (unsigned L = 0; L < State.numLoops(); ++L) {
    const LoopTypeInfo &Info = State.Loops[L];
    for (unsigned P = 0; P < State.numLoops(); ++P) {
      struct {
        const ExprTypes *T;
        HeaderExpr Which;
      } Slots[] = {{&Info.LB, HeaderExpr::Lower},
                   {&Info.UB, HeaderExpr::Upper},
                   {&Info.Step, HeaderExpr::Step}};
      for (const auto &Slot : Slots) {
        BoundType T = Slot.T->wrt(P);
        if (!typeLE(T, W)) {
          W = T;
          if (WorstLoop)
            *WorstLoop = L;
          if (WorstExpr)
            *WorstExpr = Slot.Which;
        }
      }
    }
  }
  return W;
}

/// "loop 2 upper bound `n - i`" for the attribution slot of \p Nest.
std::string headerExprDesc(const LoopNest &Nest, unsigned LoopIdx,
                           HeaderExpr Which) {
  if (LoopIdx >= Nest.numLoops())
    return "";
  const Loop &L = Nest.Loops[LoopIdx];
  const ExprRef &E = Which == HeaderExpr::Lower
                         ? L.Lower
                         : (Which == HeaderExpr::Upper ? L.Upper : L.Step);
  return "loop " + std::to_string(LoopIdx + 1) + " " + headerExprName(Which) +
         " `" + (E ? E->str() : "?") + "`";
}

/// Largest integer-literal magnitude anywhere in \p E.
uint64_t maxConstMagnitude(const ExprRef &E) {
  if (!E)
    return 0;
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    return magnitude(cast<IntConstExpr>(E.get())->value());
  case Expr::Kind::Var:
    return 0;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    uint64_t L = maxConstMagnitude(B->lhs());
    uint64_t R = maxConstMagnitude(B->rhs());
    return L > R ? L : R;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    uint64_t M = 0;
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      M = std::max(M, maxConstMagnitude(Op));
    return M;
  }
  case Expr::Kind::Call: {
    uint64_t M = 0;
    for (const ExprRef &Arg : cast<CallExpr>(E.get())->args())
      M = std::max(M, maxConstMagnitude(Arg));
    return M;
  }
  }
  return 0;
}

/// Above this magnitude, two coefficients multiplied in the bounds
/// pipeline can leave the int64 range and saturate (MathUtils mulChecked).
constexpr uint64_t SaturationRiskMagnitude = uint64_t(1) << 31;

/// True when every vector of \p D is an exact distance vector.
bool allDistanceVectors(const DepSet &D) {
  for (const DepVector &V : D.vectors())
    if (!V.allDistances())
      return false;
  return true;
}

/// Finds a vector of \p D carrying a full '*' entry (all three sign
/// bits); returns its rendering, or empty when none.
std::string findStarVector(const DepSet &D) {
  for (const DepVector &V : D.vectors())
    for (const DepElem &E : V.elems())
      if (E.isDirection() && E.canBeNegative() && E.canBeZero() &&
          E.canBePositive())
        return V.str();
  return "";
}

/// The structural lint pass: rules that need no nest state (W200, W201,
/// W204) over the whole sequence, emitted in stage order.
void lintStructure(const TransformSequence &T, const LoopNest &Nest,
                   std::vector<Finding> &Out) {
  const std::vector<TemplateRef> &Steps = T.steps();

  // W204 on the source nest's own bound coefficients (stage 0).
  for (unsigned L = 0; L < Nest.numLoops(); ++L) {
    struct {
      const ExprRef *E;
      HeaderExpr Which;
    } Slots[] = {{&Nest.Loops[L].Lower, HeaderExpr::Lower},
                 {&Nest.Loops[L].Upper, HeaderExpr::Upper},
                 {&Nest.Loops[L].Step, HeaderExpr::Step}};
    for (const auto &Slot : Slots) {
      if (maxConstMagnitude(*Slot.E) < SaturationRiskMagnitude)
        continue;
      Finding F = makeFinding("W204");
      F.Bounds = headerExprDesc(Nest, L, Slot.Which);
      F.Message = "nest " + F.Bounds +
                  " carries a coefficient large enough that bounds-pipeline "
                  "arithmetic can saturate int64 (degrading legality answers "
                  "to overflow rejections)";
      Out.push_back(std::move(F));
    }
  }

  for (unsigned I = 0; I < Steps.size(); ++I) {
    const TransformTemplate &Step = *Steps[I];
    unsigned Stage = I + 1;

    if (isIdentityStage(Step)) {
      Finding F = makeFinding("W201");
      F.Stage = Stage;
      F.TemplateName = Step.name();
      F.Message = "stage is an identity " + Step.name() +
                  " and reorders nothing; drop it";
      F.FixIt = "delete stage " + std::to_string(Stage);
      Out.push_back(std::move(F));
    }

    // W204 on template coefficients.
    uint64_t ParamMag = 0;
    std::string ParamDesc;
    if (const auto *U = dyn_cast<UnimodularTemplate>(&Step)) {
      for (unsigned R = 0; R < U->matrix().size(); ++R)
        for (unsigned C = 0; C < U->matrix().size(); ++C)
          ParamMag = std::max(ParamMag, magnitude(U->matrix().at(R, C)));
      ParamDesc = "matrix entry";
    } else if (const auto *B = dyn_cast<BlockTemplate>(&Step)) {
      for (const ExprRef &S : B->bsize())
        ParamMag = std::max(ParamMag, maxConstMagnitude(S));
      ParamDesc = "block size";
    } else if (const auto *IL = dyn_cast<InterleaveTemplate>(&Step)) {
      for (const ExprRef &S : IL->isize())
        ParamMag = std::max(ParamMag, maxConstMagnitude(S));
      ParamDesc = "interleave size";
    } else if (const auto *SM = dyn_cast<StripMineTemplate>(&Step)) {
      ParamMag = maxConstMagnitude(SM->size());
      ParamDesc = "strip size";
    }
    if (ParamMag >= SaturationRiskMagnitude) {
      Finding F = makeFinding("W204");
      F.Stage = Stage;
      F.TemplateName = Step.name();
      F.Bounds = ParamDesc + " in " + Step.str();
      F.Message = Step.name() + " " + ParamDesc +
                  " is large enough that bounds-pipeline arithmetic can "
                  "saturate int64";
      Out.push_back(std::move(F));
    }

    // W200: this stage and the next fold into one under reduced().
    // Folding huge-entry matrices can saturate int64; a degraded fold is
    // not a truthful finding, so it is skipped (W204 already flags the
    // saturation risk itself).
    if (I + 1 < Steps.size()) {
      TransformSequence Pair(
          std::vector<TemplateRef>{Steps[I], Steps[I + 1]});
      OverflowGuard Shield;
      if (Pair.reduced().size() == 1 && !Shield.triggered()) {
        Finding F = makeFinding("W200");
        F.Stage = Stage;
        F.TemplateName = Step.name();
        F.Message = "stages " + std::to_string(Stage) + " and " +
                    std::to_string(Stage + 1) + " (" + Step.name() + ", " +
                    Steps[I + 1]->name() +
                    ") fold into a single stage under reduced()";
        F.FixIt = "replace both stages with " +
                  Pair.reduced().steps().front()->str();
        Out.push_back(std::move(F));
      }
    }
  }
}

} // namespace

bool irlt::analysis::isIdentityStage(const TransformTemplate &T) {
  using Kind = TransformTemplate::Kind;
  switch (T.kind()) {
  case Kind::Unimodular: {
    const auto &M = cast<UnimodularTemplate>(&T)->matrix();
    for (unsigned R = 0; R < M.size(); ++R)
      for (unsigned C = 0; C < M.size(); ++C)
        if (M.at(R, C) != (R == C ? 1 : 0))
          return false;
    return true;
  }
  case Kind::ReversePermute: {
    const auto *RP = cast<ReversePermuteTemplate>(&T);
    for (unsigned K = 0; K < RP->inputSize(); ++K)
      if (RP->rev()[K] || RP->perm()[K] != K)
        return false;
    return true;
  }
  case Kind::Parallelize: {
    for (bool Flag : cast<ParallelizeTemplate>(&T)->parFlag())
      if (Flag)
        return false;
    return true;
  }
  default:
    return false;
  }
}

TransformSequence irlt::analysis::fixitSequence(const TransformSequence &T) {
  // Strip-then-fold to a fixed point: folding two interchanges yields an
  // identity ReversePermute that the next strip pass drops, and dropping
  // a stage can make its neighbours adjacent and foldable again.
  TransformSequence Cur = T;
  for (;;) {
    std::vector<TemplateRef> Kept;
    for (const TemplateRef &Step : Cur.steps())
      if (!isIdentityStage(*Step))
        Kept.push_back(Step);
    TransformSequence Next = TransformSequence(std::move(Kept)).reduced();
    if (Next.size() == Cur.size())
      return Next;
    Cur = std::move(Next);
  }
}

AnalysisReport irlt::analysis::analyzeSequence(const TransformSequence &T,
                                               const LoopNest &Nest,
                                               const DepSet &D,
                                               const AnalysisOptions &Opts) {
  AnalysisReport Report;
  const std::vector<TemplateRef> &Steps = T.steps();

  if (Opts.Lint)
    lintStructure(T, Nest, Report.Findings);

  // Does any stage strictly after index I parallelize? (for W202)
  auto laterParallelize = [&](unsigned I) {
    for (unsigned J = I + 1; J < Steps.size(); ++J)
      if (Steps[J]->kind() == TransformTemplate::Kind::Parallelize)
        return true;
    return false;
  };

  // The walk renders the incremental legality engine's own stage walk
  // (legality/IncrementalEngine.h): each stage reads the builder before
  // and after extend(), and a stage rejection becomes the finding its
  // RejectKind names. So a sequence is error-clean here exactly when
  // isLegal() accepts it, and analyze shares prefix-cache entries with
  // every other caller of the uniform test. Provenance and lint
  // computations run under their own guards so they cannot perturb the
  // engine's verdict. A rejected stage leaves the builder on the
  // surviving prefix, so nest() and deps() still show what it observed.
  legality::SequenceBuilder B = legality::IncrementalEngine::global().open(
      Nest, D, legality::Mode::Full);
  // Lattice provenance of the builder's current nest: what the next stage
  // observes, and what the last surviving stage generated.
  unsigned WorstLoop = 0;
  HeaderExpr WorstExpr = HeaderExpr::Lower;
  BoundType Worst = BoundType::Const;
  auto observe = [&] {
    OverflowGuard Shield;
    Worst = stateWorst(NestTypeState::fromNest(B.nest()), &WorstLoop,
                       &WorstExpr);
  };
  observe();
  for (unsigned I = 0; I < Steps.size(); ++I) {
    const TemplateRef &Step = Steps[I];
    unsigned Stage = I + 1;

    // Defensive arity check so malformed hand-built sequences diagnose
    // instead of indexing out of range inside a template.
    if (Step->inputSize() != B.outputLoops()) {
      Finding F = makeFinding("E106");
      F.Stage = Stage;
      F.TemplateName = Step->name();
      F.Message = Step->name() + " expects " +
                  std::to_string(Step->inputSize()) +
                  " loops but the nest has " +
                  std::to_string(B.outputLoops()) + " at this stage";
      Report.Findings.push_back(std::move(F));
      return Report;
    }

    BoundType PreWorst = Worst;
    bool PreAllDistances = allDistanceVectors(B.deps());

    if (!B.extend(Step)) {
      using RK = LegalityResult::RejectKind;
      const LegalityResult &L = B.failure();
      Finding F = makeFinding(
          L.Kind == RK::Overflow                 ? "E104"
          : L.Kind == RK::DependencePrecondition ? "E103"
          : L.Kind == RK::ApplyFailure           ? "E105"
          : usesTable4(Step->kind())             ? "E102"
                                                 : "E101");
      F.Stage = Stage;
      F.TemplateName = Step->name();
      F.Message = L.Why.Message;
      if (L.Kind != RK::Overflow)
        F.Lattice = typeName(PreWorst);
      if (L.Kind == RK::BoundsPrecondition)
        F.Bounds = headerExprDesc(B.nest(), WorstLoop, WorstExpr);
      if (L.Kind == RK::DependencePrecondition) {
        std::string Deps = B.deps().str();
        if (Deps.size() <= 200)
          F.DepVector = Deps;
      }
      Report.Findings.push_back(std::move(F));
      break;
    }
    observe();

    if (Opts.Lint) {
      // W203: this stage's generated bounds introduced a nonlinear
      // classification the input nest did not have.
      if (usesTable4(Step->kind()) ||
          Step->kind() == TransformTemplate::Kind::Coalesce) {
        if (Worst == BoundType::Nonlinear && PreWorst != BoundType::Nonlinear) {
          Finding F = makeFinding("W203");
          F.Stage = Stage;
          F.TemplateName = Step->name();
          F.Lattice = typeName(Worst);
          F.Bounds = headerExprDesc(B.nest(), WorstLoop, WorstExpr);
          F.Message =
              Step->name() +
              " generates nonlinear loop bounds here (" + F.Bounds +
              "), which blocks every Table 3 template downstream";
          Report.Findings.push_back(std::move(F));
        }
      }

      // W202: an exact distance set degraded to a full '*' direction
      // while a later Parallelize still has to prove independence.
      if (PreAllDistances && laterParallelize(I)) {
        std::string Star = findStarVector(B.deps());
        if (!Star.empty()) {
          Finding F = makeFinding("W202");
          F.Stage = Stage;
          F.TemplateName = Step->name();
          F.DepVector = Star;
          F.Message = Step->name() +
                      " degrades an exact distance vector to the '*' "
                      "direction (" +
                      Star +
                      "), blinding the later Parallelize stage's "
                      "legality test";
          Report.Findings.push_back(std::move(F));
        }
      }
    }
  }

  // Final lexicographic test on the fully mapped set (isLegal part (a));
  // a failed builder's finish() is its stage rejection, never E100.
  LegalityResult L = B.finish();
  if (L.Kind == LegalityResult::RejectKind::LexNegative) {
    Finding F = makeFinding("E100");
    F.Message = L.Why.Message;
    // LegalityResult names the offending vector only inside Why's text.
    for (const DepVector &V : L.FinalDeps.vectors())
      if (V.canBeLexNegative()) {
        F.DepVector = V.str();
        break;
      }
    F.Lattice = typeName(Worst);
    Report.Findings.push_back(std::move(F));
  }

  // Opt-in dependence-oracle cross-check (docs/DEPENDENCE.md): diff the
  // production analyzer against the first-principles fm-exact backend on
  // the *source* nest. Under-reporting (W206) means every verdict above
  // was computed from a possibly-incomplete dependence set - still a
  // warning, not an error, because the error class must stay equivalent
  // to isLegal() (the fuzzer's analyzer oracle relies on that), and
  // isLegal() shares the production set. Whole-sequence findings: Stage 0.
  if (Opts.Lint && Opts.CrossCheckDeps) {
    deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
    deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
    deps::CrossCheckResult CC = deps::crossCheckDeps(Fast, Exact);
    for (const DepVector &V : CC.Uncovered) {
      Finding F = makeFinding("W206");
      F.Message = "exact backend reports dependence vector " + V.str() +
                  " that no production vector covers (soundness "
                  "divergence; replay: irlt-opt <nest> --deps-diff)";
      F.DepVector = V.str();
      Report.Findings.push_back(std::move(F));
    }
    if (CC.Stat == deps::CrossCheckResult::Status::PrecisionGap) {
      for (const DepVector &V : CC.Extra) {
        Finding F = makeFinding("W205");
        F.Message = "production dependence vector " + V.str() +
                    " lies beyond the exact backend's set (conservative "
                    "over-approximation; may forbid legal transforms)";
        F.DepVector = V.str();
        Report.Findings.push_back(std::move(F));
      }
    }
  }

  // A fix-it exists when a droppable/foldable lint rule fired. Fusing can
  // saturate int64 on huge-entry matrices; a degraded fix-it would not be
  // equivalent to the input, so it is dropped rather than reported.
  for (const Finding &F : Report.Findings) {
    if (F.RuleId == "W200" || F.RuleId == "W201") {
      OverflowGuard Shield;
      TransformSequence Fixed = fixitSequence(T);
      if (!Shield.triggered())
        Report.Fixed = std::move(Fixed);
      break;
    }
  }
  return Report;
}

void irlt::analysis::writeReport(json::JsonWriter &W,
                                 const AnalysisReport &R) {
  W.beginObject();
  W.field("errors", R.errorCount());
  W.field("warnings", R.warningCount());
  W.key("findings").beginArray();
  for (const Finding &F : R.Findings) {
    W.beginObject();
    W.field("rule", F.RuleId);
    W.field("severity", severityName(F.Severity));
    W.field("stage", F.Stage);
    if (!F.TemplateName.empty())
      W.field("template", F.TemplateName);
    W.field("message", F.Message);
    W.field("citation", F.Citation);
    if (!F.Lattice.empty())
      W.field("lattice", F.Lattice);
    if (!F.DepVector.empty())
      W.field("dep_vector", F.DepVector);
    if (!F.Bounds.empty())
      W.field("bounds", F.Bounds);
    if (!F.FixIt.empty())
      W.field("fixit", F.FixIt);
    W.endObject();
  }
  W.endArray();
  if (R.Fixed)
    W.field("fixed_sequence", R.Fixed->str());
  W.endObject();
}

std::vector<Diag> irlt::analysis::toDiags(const AnalysisReport &R) {
  std::vector<Diag> Out;
  Out.reserve(R.Findings.size());
  for (const Finding &F : R.Findings)
    Out.push_back(F.toDiag());
  return Out;
}
