//===- search/AccessProgram.cpp - Lowered address-stream programs --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
// Every rule below mirrors eval/Evaluator.cpp's RunContext, because the
// measurement must equal the interpreter's bit for bit:
//  - name lookup prefers loop and init variables over parameters;
//  - each loop level evaluates lower, upper, step in that order, then
//    counts one header per iteration against the budget;
//  - each body execution counts one instance, runs the inits in order,
//    then per statement the RHS (operands left to right, reads recorded
//    as they are evaluated) and the LHS subscripts, then the write;
//  - arithmetic is addChecked/mulChecked/floorDiv/floorMod, and
//    subtraction is addChecked(L, -R), exactly as Expr::evaluate does.
//
//===----------------------------------------------------------------------===//

#include "search/AccessProgram.h"

#include "support/Casting.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

using namespace irlt;
using namespace irlt::search;

//===----------------------------------------------------------------------===
// Lowering
//===----------------------------------------------------------------------===

class AccessProgram::Lowerer {
public:
  Lowerer(const LoopNest &Nest, const std::map<std::string, int64_t> &Params,
          AccessProgram &P)
      : Nest(Nest), Params(Params), P(P) {}

  /// \returns false when the nest is outside the lowered form.
  bool lower();

private:
  /// Where an expression sits, which decides how its names resolve.
  enum class Scope { Bound, Init, Body };

  void emitOp(Op::Kind K, uint32_t Arg = 0, int64_t Imm = 0) {
    // Peephole: `slot + c` and `slot - c` (c != INT64_MIN, whose negation
    // the interpreter computes with wraparound) become one SlotAdd, which
    // computes the same addChecked(slot, +-c).
    size_t N = P.Ops.size();
    if ((K == Op::Add || K == Op::Sub) && N >= ProgBegin + 2 &&
        P.Ops[N - 2].K == Op::Slot && P.Ops[N - 1].K == Op::Const &&
        (K == Op::Add || P.Ops[N - 1].Imm != INT64_MIN)) {
      int64_t C = P.Ops[N - 1].Imm;
      P.Ops.pop_back();
      P.Ops.back() = Op{Op::SlotAdd, P.Ops.back().Arg, K == Op::Add ? C : -C};
      --Depth;
      return;
    }
    P.Ops.push_back(Op{K, Arg, Imm});
    // Stack effect of the instruction just emitted.
    switch (K) {
    case Op::Const:
    case Op::Slot:
    case Op::SlotAdd:
      ++Depth;
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
      --Depth;
      break;
    case Op::Min:
    case Op::Max:
      Depth -= Arg - 1;
      break;
    case Op::Sqrt:
    case Op::Abs:
    case Op::Sgn:
      break;
    case Op::Read:
      ++Depth;
      break;
    }
    P.MaxStack = std::max<unsigned>(P.MaxStack, Depth);
  }

  /// A new reference to \p Array with \p Arity subscripts; its subscript
  /// programs are filled in by lowerSubscripts().
  unsigned newRef(const std::string &Array, size_t Arity) {
    unsigned Id = ArrayIds.at(Array);
    if (P.Arity[Id] == NoArity)
      P.Arity[Id] = static_cast<unsigned>(Arity);
    else if (P.Arity[Id] != Arity)
      P.ArityMismatch = true;
    RefCode R;
    R.Array = Id;
    R.Subs.resize(Arity);
    P.Refs.push_back(std::move(R));
    return static_cast<unsigned>(P.Refs.size() - 1);
  }

  bool emitVar(const std::string &Name);
  bool emit(const ExprRef &E, bool ReadsAllowed);
  bool lowerProg(const ExprRef &E, bool ReadsAllowed, Prog &Out) {
    Out.Begin = static_cast<uint32_t>(P.Ops.size());
    ProgBegin = Out.Begin;
    Depth = 0;
    if (!emit(E, ReadsAllowed))
      return false;
    Out.End = static_cast<uint32_t>(P.Ops.size());
    return true;
  }
  /// Lowers reference \p Ref's subscripts, sharing the program of any
  /// subscript lowered before to the same instructions.
  bool lowerSubscripts(unsigned Ref, const std::vector<ExprRef> &Subs) {
    for (size_t D = 0; D < Subs.size(); ++D) {
      Prog New;
      if (!lowerProg(Subs[D], /*ReadsAllowed=*/false, New))
        return false;
      auto Same = [&](const Prog &Old) {
        return std::equal(P.Ops.begin() + Old.Begin, P.Ops.begin() + Old.End,
                          P.Ops.begin() + New.Begin, P.Ops.begin() + New.End,
                          [](const Op &A, const Op &B) {
                            return A.K == B.K && A.Arg == B.Arg &&
                                   A.Imm == B.Imm;
                          });
      };
      auto It = std::find_if(P.Subscripts.begin(), P.Subscripts.end(), Same);
      if (It != P.Subscripts.end())
        P.Ops.resize(New.Begin);
      else
        It = P.Subscripts.insert(P.Subscripts.end(), New);
      P.Refs[Ref].Subs[D] =
          static_cast<unsigned>(It - P.Subscripts.begin());
    }
    return true;
  }

  static constexpr unsigned NoArity = ~0u;

  const LoopNest &Nest;
  const std::map<std::string, int64_t> &Params;
  AccessProgram &P;
  std::map<std::string, unsigned> LoopLevel;
  /// Init statements defining each name, in statement order.
  std::map<std::string, std::vector<unsigned>> InitDefs;
  std::map<std::string, unsigned> ArrayIds;
  Scope Where = Scope::Bound;
  /// The loop level (Bound) or init statement (Init) being lowered.
  unsigned Index = 0;
  /// Start of the program being lowered, and its current stack depth.
  size_t ProgBegin = 0;
  unsigned Depth = 0;
  /// RHS reads whose subscript programs are still owed; they are lowered
  /// after the RHS so each program stays contiguous.
  std::vector<std::pair<unsigned, const CallExpr *>> Pending;
};

bool AccessProgram::Lowerer::emitVar(const std::string &Name) {
  unsigned NumLoops = Nest.numLoops();
  auto L = LoopLevel.find(Name);
  auto I = InitDefs.find(Name);
  switch (Where) {
  case Scope::Bound:
    // Only outer loops are bound while a header is evaluated; an inner
    // loop's or an init's variable holds whatever an earlier iteration
    // left behind (or nothing yet).
    if (L != LoopLevel.end() && L->second < Index) {
      emitOp(Op::Slot, L->second);
      return true;
    }
    if (L != LoopLevel.end() || I != InitDefs.end())
      return false;
    break;
  case Scope::Init:
    if (L != LoopLevel.end()) {
      emitOp(Op::Slot, L->second);
      return true;
    }
    if (I != InitDefs.end()) {
      // The latest definition earlier in this body execution; without
      // one, the value would be left over from the previous execution.
      auto Def = std::lower_bound(I->second.begin(), I->second.end(), Index);
      if (Def == I->second.begin())
        return false;
      emitOp(Op::Slot, NumLoops + *std::prev(Def));
      return true;
    }
    break;
  case Scope::Body:
    if (L != LoopLevel.end()) {
      emitOp(Op::Slot, L->second);
      return true;
    }
    if (I != InitDefs.end()) {
      emitOp(Op::Slot, NumLoops + I->second.back());
      return true;
    }
    break;
  }
  auto Param = Params.find(Name);
  if (Param == Params.end())
    return false; // unbound: the interpreter asserts
  emitOp(Op::Const, 0, Param->second);
  return true;
}

bool AccessProgram::Lowerer::emit(const ExprRef &E, bool ReadsAllowed) {
  if (!E)
    return false;
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    emitOp(Op::Const, 0, cast<IntConstExpr>(E.get())->value());
    return true;
  case Expr::Kind::Var:
    return emitVar(cast<VarExpr>(E.get())->name());
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    if (!emit(B->lhs(), ReadsAllowed) || !emit(B->rhs(), ReadsAllowed))
      return false;
    static constexpr Op::Kind Kinds[] = {Op::Add, Op::Sub, Op::Mul, Op::Div,
                                         Op::Mod};
    emitOp(Kinds[static_cast<int>(E->kind()) -
                 static_cast<int>(Expr::Kind::Add)]);
    return true;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    if (M->operands().empty())
      return false;
    for (const ExprRef &Operand : M->operands())
      if (!emit(Operand, ReadsAllowed))
        return false;
    emitOp(M->isMin() ? Op::Min : Op::Max,
           static_cast<uint32_t>(M->operands().size()));
    return true;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    const std::string &Callee = C->callee();
    if (Nest.ArrayNames.count(Callee)) {
      if (!ReadsAllowed) // addresses or bounds would depend on data
        return false;
      unsigned Ref = newRef(Callee, C->args().size());
      emitOp(Op::Read, Ref);
      Pending.emplace_back(Ref, C);
      return true;
    }
    Op::Kind K;
    if (Callee == "sqrt")
      K = Op::Sqrt;
    else if (Callee == "abs")
      K = Op::Abs;
    else if (Callee == "sgn")
      K = Op::Sgn;
    else
      return false; // an opaque function the interpreter cannot bind
    if (C->args().size() != 1)
      return false;
    if (!emit(C->args().front(), ReadsAllowed))
      return false;
    emitOp(K);
    return true;
  }
  }
  return false;
}

bool AccessProgram::Lowerer::lower() {
  unsigned NumLoops = Nest.numLoops();
  for (unsigned K = 0; K < NumLoops; ++K)
    if (!LoopLevel.emplace(Nest.Loops[K].IndexVar, K).second)
      return false; // the inner loop's exit unbinds the outer variable
  for (unsigned I = 0; I < Nest.Inits.size(); ++I) {
    const std::string &Var = Nest.Inits[I].Var;
    if (LoopLevel.count(Var))
      return false; // outer bounds would read the init's value
    InitDefs[Var].push_back(I);
  }

  // Array ids in name order: ArrayLayout then places the bases exactly
  // as the interpreter path, which declares from a name-keyed map.
  std::set<std::string> Arrays;
  std::vector<ArrayRef> Reads;
  for (const AssignStmt &S : Nest.Body) {
    Arrays.insert(S.LHS.Array);
    collectArrayReads(S.RHS, Nest.ArrayNames, Reads);
  }
  for (const ArrayRef &R : Reads)
    Arrays.insert(R.Array);
  for (const std::string &A : Arrays) {
    ArrayIds.emplace(A, static_cast<unsigned>(P.ArrayNames.size()));
    P.ArrayNames.push_back(A);
  }
  P.Arity.assign(P.ArrayNames.size(), NoArity);

  Where = Scope::Bound;
  for (unsigned K = 0; K < NumLoops; ++K) {
    const Loop &L = Nest.Loops[K];
    LoopCode LC;
    Index = K;
    if (!lowerProg(L.Lower, false, LC.Lower) ||
        !lowerProg(L.Upper, false, LC.Upper) ||
        !lowerProg(L.Step, false, LC.Step))
      return false;
    P.Loops.push_back(LC);
  }

  Where = Scope::Init;
  for (unsigned I = 0; I < Nest.Inits.size(); ++I) {
    Index = I;
    Prog Init;
    if (!lowerProg(Nest.Inits[I].Value, false, Init))
      return false;
    P.Inits.push_back(Init);
  }

  Where = Scope::Body;
  for (const AssignStmt &S : Nest.Body) {
    StmtCode SC;
    Pending.clear();
    if (!lowerProg(S.RHS, /*ReadsAllowed=*/true, SC.RHS))
      return false;
    for (const auto &[Ref, Call] : Pending)
      if (!lowerSubscripts(Ref, Call->args()))
        return false;
    SC.Write = newRef(S.LHS.Array, S.LHS.Subscripts.size());
    if (!lowerSubscripts(SC.Write, S.LHS.Subscripts))
      return false;
    P.Stmts.push_back(SC);
  }
  return true;
}

std::optional<AccessProgram>
AccessProgram::lower(const LoopNest &Nest,
                     const std::map<std::string, int64_t> &Params) {
  AccessProgram P;
  if (!Lowerer(Nest, Params, P).lower())
    return std::nullopt;
  return P;
}

//===----------------------------------------------------------------------===
// Running
//===----------------------------------------------------------------------===

class AccessProgram::Runner {
public:
  Runner(const AccessProgram &P, uint64_t MaxInstances)
      : P(P), MaxInstances(MaxInstances),
        NumLoops(static_cast<unsigned>(P.Loops.size())),
        Slots(P.Loops.size() + P.Inits.size()), Stack(P.MaxStack),
        SubValues(P.Subscripts.size()) {}

  Result run(const CacheConfig &Cache);

private:
  int64_t eval(Prog Pr) {
    // Most subscripts and many bounds are a lone variable or constant,
    // or a variable plus a constant.
    const Op &First = P.Ops[Pr.Begin];
    if (Pr.End - Pr.Begin == 1) {
      if (First.K == Op::Slot)
        return Slots[First.Arg];
      if (First.K == Op::Const)
        return First.Imm;
      if (First.K == Op::SlotAdd)
        return addChecked(Slots[First.Arg], First.Imm);
    }
    return evalStack(Pr);
  }
  int64_t evalStack(Prog Pr);
  /// The start of every body execution: inits, then subscript values.
  void enterBody() {
    for (size_t I = 0; I < P.Inits.size(); ++I)
      Slots[NumLoops + I] = eval(P.Inits[I]);
    for (size_t S = 0; S < P.Subscripts.size(); ++S)
      SubValues[S] = eval(P.Subscripts[S]);
  }
  /// Walks the iteration space from loop \p Level inward. Pass 1 (Scan)
  /// also enforces the budgets and the overflow guard, and \returns
  /// false when they stop it; pass 2 repeats what pass 1 accepted.
  template <bool Scan> bool walk(unsigned Level);
  bool scanBody();
  void replayBody();

  /// Pass 2: one simulated access by reference \p Ref; \returns the
  /// address.
  uint64_t access(unsigned Ref) {
    const RefAddress &RA = RefAddresses[Ref];
    uint64_t Addr = RA.Offset;
    for (uint32_t K = RA.Begin; K < RA.End; ++K)
      Addr += Coefs[K] *
              static_cast<uint64_t>(SubValues[P.Refs[Ref].Subs[K - RA.Begin]]);
    Sim->access(Addr);
    return Addr;
  }

  const AccessProgram &P;
  const uint64_t MaxInstances;
  const unsigned NumLoops;
  OverflowGuard Guard;
  std::vector<int64_t> Slots;
  std::vector<int64_t> Stack;
  /// This body execution's value of each subscript program.
  std::vector<int64_t> SubValues;
  uint64_t Instances = 0;
  uint64_t Headers = 0;
  /// Pass 1: the range of each subscript program over the run.
  std::vector<int64_t> SubLows, SubHighs;
  /// Pass 2: per reference, its address as ArrayLayout::affineAddress,
  /// coefficients at [Begin, End) of Coefs.
  struct RefAddress {
    uint64_t Offset;
    uint32_t Begin, End;
  };
  std::vector<RefAddress> RefAddresses;
  std::vector<uint64_t> Coefs;
  std::vector<int64_t> Store; ///< indexed by address / 8
  std::optional<CacheSim> Sim;
};

int64_t AccessProgram::Runner::evalStack(Prog Pr) {
  int64_t *Sp = Stack.data();
  for (const Op *I = P.Ops.data() + Pr.Begin, *E = P.Ops.data() + Pr.End;
       I != E; ++I) {
    switch (I->K) {
    case Op::Const:
      *Sp++ = I->Imm;
      break;
    case Op::Slot:
      *Sp++ = Slots[I->Arg];
      break;
    case Op::SlotAdd:
      *Sp++ = addChecked(Slots[I->Arg], I->Imm);
      break;
    case Op::Add:
      --Sp;
      Sp[-1] = addChecked(Sp[-1], Sp[0]);
      break;
    case Op::Sub:
      --Sp;
      Sp[-1] = addChecked(Sp[-1], -Sp[0]);
      break;
    case Op::Mul:
      --Sp;
      Sp[-1] = mulChecked(Sp[-1], Sp[0]);
      break;
    case Op::Div:
      --Sp;
      Sp[-1] = floorDiv(Sp[-1], Sp[0]);
      break;
    case Op::Mod:
      --Sp;
      Sp[-1] = floorMod(Sp[-1], Sp[0]);
      break;
    case Op::Min:
    case Op::Max: {
      Sp -= I->Arg;
      int64_t Best = Sp[0];
      for (uint32_t J = 1; J < I->Arg; ++J)
        Best = I->K == Op::Min ? std::min(Best, Sp[J]) : std::max(Best, Sp[J]);
      *Sp++ = Best;
      break;
    }
    case Op::Sqrt:
      assert(Sp[-1] >= 0 && "sqrt of negative value");
      Sp[-1] = static_cast<int64_t>(std::sqrt(static_cast<double>(Sp[-1])));
      break;
    case Op::Abs:
      Sp[-1] = std::abs(Sp[-1]);
      break;
    case Op::Sgn:
      Sp[-1] = sign(Sp[-1]);
      break;
    case Op::Read:
      *Sp++ = Store[access(I->Arg) >> 3];
      break;
    }
  }
  return Sp[-1];
}

template <bool Scan> bool AccessProgram::Runner::walk(unsigned Level) {
  if (Level == NumLoops)
    return Scan ? scanBody() : (replayBody(), true);
  const LoopCode &L = P.Loops[Level];
  int64_t Lo = eval(L.Lower);
  int64_t Hi = eval(L.Upper);
  int64_t St = eval(L.Step);
  if (Scan && Guard.triggered())
    return false;
  assert(St != 0 && "loop step evaluated to zero");
  for (int64_t X = Lo; St > 0 ? X <= Hi : X >= Hi; X += St) {
    // Headers count against the budget too, so a huge loop over a
    // zero-trip inner nest stops as it does in the interpreter.
    if (Scan && ++Headers > MaxInstances)
      return false;
    Slots[Level] = X;
    if (!walk<Scan>(Level + 1))
      return false;
  }
  return true;
}

bool AccessProgram::Runner::scanBody() {
  if (++Instances > MaxInstances)
    return false;
  enterBody();
  for (size_t S = 0; S < SubValues.size(); ++S) {
    SubLows[S] = std::min(SubLows[S], SubValues[S]);
    SubHighs[S] = std::max(SubHighs[S], SubValues[S]);
  }
  return !Guard.triggered();
}

void AccessProgram::Runner::replayBody() {
  enterBody();
  for (const StmtCode &S : P.Stmts) {
    int64_t V = eval(S.RHS); // reads stream into the simulator here
    Store[access(S.Write) >> 3] = V;
  }
}

AccessProgram::Result AccessProgram::Runner::run(const CacheConfig &Cache) {
  // Pass 1: extents, budgets, overflow; nothing sized by the data yet.
  SubLows.assign(P.Subscripts.size(), INT64_MAX);
  SubHighs.assign(P.Subscripts.size(), INT64_MIN);
  if (!walk<true>(0))
    return Result{Status::NoCost, 0.0};
  if (Instances == 0 || P.Stmts.empty())
    return Result{Status::Measured, 0.0}; // no access was made
  if (P.ArityMismatch)
    return Result{Status::NoCost, 0.0};

  // Every reference was executed (each body execution runs every
  // statement), so each array's extent is the union of its references'
  // subscript ranges.
  std::vector<std::vector<int64_t>> Lows(P.ArrayNames.size()),
      Highs(P.ArrayNames.size());
  for (unsigned A = 0; A < P.ArrayNames.size(); ++A) {
    Lows[A].assign(P.Arity[A], INT64_MAX);
    Highs[A].assign(P.Arity[A], INT64_MIN);
  }
  for (const RefCode &R : P.Refs)
    for (size_t D = 0; D < R.Subs.size(); ++D) {
      Lows[R.Array][D] = std::min(Lows[R.Array][D], SubLows[R.Subs[D]]);
      Highs[R.Array][D] = std::max(Highs[R.Array][D], SubHighs[R.Subs[D]]);
    }

  // Size the store before laying out: a span can exceed what the
  // layout's int64 arithmetic represents.
  uint64_t Cells = 0;
  for (unsigned A = 0; A < P.ArrayNames.size(); ++A) {
    uint64_t Elems = 1;
    for (size_t D = 0; D < Lows[A].size(); ++D) {
      uint64_t Span = static_cast<uint64_t>(Highs[A][D]) -
                      static_cast<uint64_t>(Lows[A][D]) + 1;
      if (Span == 0 || Span > MaxCells)
        return Result{Status::OverCellCap, 0.0};
      Elems *= Span;
      if (Elems > MaxCells)
        return Result{Status::OverCellCap, 0.0};
    }
    Cells += Elems;
    if (Cells > MaxCells)
      return Result{Status::OverCellCap, 0.0};
  }
  ArrayLayout Layout;
  for (unsigned A = 0; A < P.ArrayNames.size(); ++A) {
    [[maybe_unused]] unsigned Id =
        Layout.declare(P.ArrayNames[A], std::move(Lows[A]), std::move(Highs[A]));
    assert(Id == A && "arrays are declared in id order");
  }
  for (const RefCode &R : P.Refs) {
    ArrayLayout::AffineAddress AA = Layout.affineAddress(R.Array);
    RefAddress RA{AA.Offset, static_cast<uint32_t>(Coefs.size()), 0};
    Coefs.insert(Coefs.end(), AA.Coefs.begin(), AA.Coefs.end());
    RA.End = static_cast<uint32_t>(Coefs.size());
    RefAddresses.push_back(RA);
  }

  // Pass 2: values and the address stream.
  Store.assign(Layout.endAddress() / 8, 0);
  Sim.emplace(Cache);
  walk<false>(0);
  if (Guard.triggered())
    return Result{Status::NoCost, 0.0};
  return Result{Status::Measured, Sim->missRatio()};
}

AccessProgram::Result AccessProgram::run(const CacheConfig &Cache,
                                         uint64_t MaxInstances) const {
  return Runner(*this, MaxInstances).run(Cache);
}
