//===- search/CostModel.cpp - Simulated-locality cost model ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "search/CostModel.h"

#include "eval/Evaluator.h"
#include "search/AccessProgram.h"
#include "support/Casting.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <map>

using namespace irlt;
using namespace irlt::search;

namespace {

/// Collects the callee names of every CallExpr in \p E.
void collectCallNames(const ExprRef &E, std::set<std::string> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::Var:
    return;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    collectCallNames(B->lhs(), Out);
    collectCallNames(B->rhs(), Out);
    return;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      collectCallNames(Op, Out);
    return;
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    Out.insert(C->callee());
    for (const ExprRef &Arg : C->args())
      collectCallNames(Arg, Out);
    return;
  }
  }
}

/// Every expression of the nest, for whole-nest walks.
template <typename Fn> void forEachExpr(const LoopNest &Nest, Fn F) {
  for (const Loop &L : Nest.Loops) {
    F(L.Lower);
    F(L.Upper);
    F(L.Step);
  }
  for (const InitStmt &I : Nest.Inits)
    F(I.Value);
  for (const AssignStmt &S : Nest.Body) {
    for (const ExprRef &Sub : S.LHS.Subscripts)
      F(Sub);
    F(S.RHS);
  }
}

/// Names the evaluator resolves without user bindings.
bool isBuiltinFn(const std::string &Name) {
  return Name == "sqrt" || Name == "abs" || Name == "sgn";
}

} // namespace

std::map<std::string, int64_t>
CostModel::defaultBindings(const LoopNest &Nest) {
  std::map<std::string, int64_t> Bindings;
  for (const std::string &V : Nest.freeSymbols())
    Bindings[V] = 24;
  return Bindings;
}

CostModel::CostModel(const LoopNest &Nest, CostModelOptions Opts)
    : Nest(Nest), Opts(std::move(Opts)) {
  std::set<std::string> Calls;
  forEachExpr(Nest, [&](const ExprRef &E) { collectCallNames(E, Calls); });
  for (const std::string &C : Calls)
    if (!Nest.ArrayNames.count(C) && !isBuiltinFn(C)) {
      Unusable = "nest calls opaque function '" + C +
                 "' which the cost model cannot execute";
      return;
    }
  if (this->Opts.Params.empty())
    this->Opts.Params = defaultBindings(Nest);
}

std::optional<double> CostModel::missRatio(const TransformSequence &Seq,
                                           const std::string &Key) {
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
  }
  // Measure outside the lock: concurrent workers may race on the same key,
  // but the measurement is deterministic, so whichever insert wins stores
  // the same value.
  ErrorOr<LoopNest> Transformed = applySequence(Seq, Nest);
  std::optional<double> Ratio =
      Transformed ? missRatio(*Transformed) : std::nullopt;
  std::lock_guard<std::mutex> Lock(MemoMutex);
  Memo.emplace(Key, Ratio);
  return Ratio;
}

std::optional<double> CostModel::missRatio(const LoopNest &Transformed) {
  if (!Unusable.empty())
    return std::nullopt;

  OverflowGuard Guard;
  if (std::optional<AccessProgram> Program =
          AccessProgram::lower(Transformed, Opts.Params)) {
    AccessProgram::Result R = Program->run(Opts.Cache, Opts.MaxInstances);
    switch (R.St) {
    case AccessProgram::Status::Measured:
      return R.MissRatio;
    case AccessProgram::Status::NoCost:
      return std::nullopt;
    case AccessProgram::Status::OverCellCap:
      break;
    }
  }
  ++Fallbacks;
  return interpret(Transformed, Guard);
}

std::optional<double>
CostModel::referenceMissRatio(const TransformSequence &Seq) const {
  if (!Unusable.empty())
    return std::nullopt;

  OverflowGuard Guard;
  ErrorOr<LoopNest> Transformed = applySequence(Seq, Nest);
  if (Guard.triggered() || !Transformed)
    return std::nullopt;
  return interpret(*Transformed, Guard);
}

std::optional<double> CostModel::interpret(const LoopNest &Transformed,
                                           const OverflowGuard &Guard) const {
  EvalConfig Config;
  Config.Params = Opts.Params;
  Config.RecordTrace = false;
  Config.RecordAccesses = true;
  Config.MaxInstances = Opts.MaxInstances;
  // Deliberately no wall-clock budget: a time-based cutoff would make the
  // cost (and hence the search winner) machine-dependent.
  ArrayStore Store;
  EvalResult R = evaluate(Transformed, Config, Store);
  if (Guard.triggered() || R.LimitHit)
    return std::nullopt;
  if (R.Accesses.empty())
    return 0.0;

  // Infer a layout from the trace itself: per array, the min/max subscript
  // seen along each dimension. This avoids requiring declared extents and
  // adapts to whatever bindings are in force.
  struct Extent {
    std::vector<int64_t> Lows, Highs;
  };
  std::map<std::string, Extent> Extents;
  for (const MemAccess &A : R.Accesses) {
    auto [It, New] = Extents.try_emplace(A.Array);
    Extent &E = It->second;
    if (New) {
      E.Lows = A.Subs;
      E.Highs = A.Subs;
      continue;
    }
    if (E.Lows.size() != A.Subs.size())
      return std::nullopt; // inconsistent arity; layout undefined
    for (size_t D = 0; D < A.Subs.size(); ++D) {
      E.Lows[D] = std::min(E.Lows[D], A.Subs[D]);
      E.Highs[D] = std::max(E.Highs[D], A.Subs[D]);
    }
  }
  ArrayLayout Layout;
  for (auto &[Name, E] : Extents)
    Layout.declare(Name, E.Lows, E.Highs);
  return replayTrace(R.Accesses, Layout, Opts.Cache);
}
