//===- ir/LoopNest.cpp - Perfect loop nests --------------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopNest.h"

#include "support/Casting.h"
#include "support/Printing.h"

#include <cassert>

using namespace irlt;

std::string irlt::ArrayRef::str() const {
  std::vector<std::string> Parts;
  Parts.reserve(Subscripts.size());
  for (const ExprRef &S : Subscripts)
    Parts.push_back(S->str());
  return Array + "(" + join(Parts, ", ") + ")";
}

std::string AssignStmt::str() const { return LHS.str() + " = " + RHS->str(); }

std::string InitStmt::str() const { return Var + " = " + Value->str(); }

int LoopNest::loopIndexOf(const std::string &Var) const {
  for (size_t I = 0; I < Loops.size(); ++I)
    if (Loops[I].IndexVar == Var)
      return static_cast<int>(I);
  return -1;
}

void irlt::collectArrayReads(const ExprRef &E,
                             const std::set<std::string> &ArrayNames,
                             std::vector<irlt::ArrayRef> &Out) {
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
    collectArrayReads(B->lhs(), ArrayNames, Out);
    collectArrayReads(B->rhs(), ArrayNames, Out);
    return;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      collectArrayReads(Op, ArrayNames, Out);
    return;
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    if (ArrayNames.count(C->callee()))
      Out.push_back(irlt::ArrayRef{C->callee(), C->args()});
    // Subscripts may themselves read arrays (e.g. a(idx(i))).
    for (const ExprRef &Arg : C->args())
      collectArrayReads(Arg, ArrayNames, Out);
    return;
  }
  }
}

void LoopNest::collectWrites(std::vector<irlt::ArrayRef> &Out) const {
  for (const AssignStmt &S : Body)
    Out.push_back(S.LHS);
}

void LoopNest::collectReads(std::vector<irlt::ArrayRef> &Out) const {
  for (const AssignStmt &S : Body)
    collectArrayReads(S.RHS, ArrayNames, Out);
}

void LoopNest::sealAsSource() {
  BodyIndexVars.clear();
  BodyIndexVars.reserve(Loops.size());
  for (const Loop &L : Loops)
    BodyIndexVars.push_back(L.IndexVar);
}

std::string LoopNest::validate() const {
  std::set<std::string> Seen;
  for (size_t K = 0; K < Loops.size(); ++K) {
    const Loop &L = Loops[K];
    if (L.IndexVar.empty())
      return formatStr("loop %zu has no index variable", K + 1);
    if (!Seen.insert(L.IndexVar).second)
      return formatStr("index variable '%s' bound twice", L.IndexVar.c_str());
    if (!L.Lower || !L.Upper || !L.Step)
      return formatStr("loop %zu ('%s') is missing a bound expression", K + 1,
                       L.IndexVar.c_str());
    // Bounds of loop k may reference index variables of loops 1..k-1 only.
    for (const ExprRef &E : {L.Lower, L.Upper, L.Step}) {
      std::set<std::string> Vars;
      E->collectVars(Vars);
      for (const std::string &V : Vars) {
        int Pos = loopIndexOf(V);
        if (Pos >= 0 && static_cast<size_t>(Pos) >= K)
          return formatStr(
              "bound of loop %zu ('%s') references non-outer index '%s'",
              K + 1, L.IndexVar.c_str(), V.c_str());
      }
    }
  }
  return std::string();
}

std::set<std::string> LoopNest::freeSymbols() const {
  std::set<std::string> Vars;
  auto Collect = [&](const ExprRef &E) {
    if (E)
      E->collectVars(Vars);
  };
  for (const Loop &L : Loops) {
    Collect(L.Lower);
    Collect(L.Upper);
    Collect(L.Step);
  }
  for (const InitStmt &I : Inits)
    Collect(I.Value);
  for (const AssignStmt &S : Body) {
    for (const ExprRef &Sub : S.LHS.Subscripts)
      Collect(Sub);
    Collect(S.RHS);
  }
  for (const Loop &L : Loops)
    Vars.erase(L.IndexVar);
  for (const InitStmt &I : Inits)
    Vars.erase(I.Var);
  for (const std::string &V : BodyIndexVars)
    Vars.erase(V);
  return Vars;
}

std::string LoopNest::str() const {
  IndentedWriter W;
  for (const Loop &L : Loops) {
    std::string Head =
        std::string(L.Kind == LoopKind::ParDo ? "pardo " : "do ") +
        L.IndexVar + " = " + L.Lower->str() + ", " + L.Upper->str();
    std::optional<int64_t> StepC = L.Step->constValue();
    if (!StepC || *StepC != 1)
      Head += ", " + L.Step->str();
    W.line(Head);
    W.indent();
  }
  for (const InitStmt &I : Inits)
    W.line(I.str());
  for (const AssignStmt &S : Body)
    W.line(S.str());
  for (size_t I = 0; I < Loops.size(); ++I) {
    W.outdent();
    W.line("enddo");
  }
  return W.str();
}
