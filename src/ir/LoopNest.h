//===- ir/LoopNest.h - Perfect loop nests ---------------------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perfect loop nest that iteration-reordering transformations map
/// between (Figure 3 of the paper): n loops (each `do` or `pardo`, with
/// lower/upper/step expressions that may reference outer index variables),
/// a list of initialization statements that define the *original* index
/// variables as functions of the new ones, and a body of array assignment
/// statements.
///
/// Array reads inside right-hand sides are represented as CallExpr nodes
/// whose callee is an array name registered in the nest; the dependence
/// analyzer and the evaluator both dispatch on that set.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_IR_LOOPNEST_H
#define IRLT_IR_LOOPNEST_H

#include "ir/Expr.h"

#include <set>
#include <string>
#include <vector>

namespace irlt {

/// Whether a loop executes its iterations sequentially (`do`) or in
/// parallel (`pardo`). The paper treats Parallelize as just another
/// iteration-reordering transformation; the flag is the whole effect.
enum class LoopKind { Do, ParDo };

/// One loop statement: `do x = Lower, Upper, Step`.
struct Loop {
  std::string IndexVar;
  ExprRef Lower;
  ExprRef Upper;
  ExprRef Step;
  LoopKind Kind = LoopKind::Do;

  Loop() = default;
  Loop(std::string IndexVar, ExprRef Lower, ExprRef Upper, ExprRef Step,
       LoopKind Kind = LoopKind::Do)
      : IndexVar(std::move(IndexVar)), Lower(std::move(Lower)),
        Upper(std::move(Upper)), Step(std::move(Step)), Kind(Kind) {}
};

/// Reference to an array element: `Array(Subscripts...)`.
struct ArrayRef {
  std::string Array;
  std::vector<ExprRef> Subscripts;

  std::string str() const;
};

/// Body statement `LHS = RHS` where RHS may read arrays via CallExpr
/// nodes whose callee is a registered array name.
struct AssignStmt {
  ArrayRef LHS;
  ExprRef RHS;

  std::string str() const;
};

/// Initialization statement `Var = Value`, emitted at the top of the loop
/// body; recovers an original index variable from the new ones.
struct InitStmt {
  std::string Var;
  ExprRef Value;

  std::string str() const;
};

/// A perfect loop nest plus its body.
class LoopNest {
public:
  /// The loops, outermost first.
  std::vector<Loop> Loops;

  /// Initialization statements (Section 4, Figure 3): emitted before the
  /// body, in this order. Empty for an untransformed nest.
  std::vector<InitStmt> Inits;

  /// The loop body proper. Transformations never change it.
  std::vector<AssignStmt> Body;

  /// Names that denote arrays when they appear in call position in RHS
  /// expressions.
  std::set<std::string> ArrayNames;

  /// The index variables the *body* was written against, in the original
  /// nest order (outermost first). For an untransformed nest this equals
  /// the loop variables; transformations keep it fixed, and the
  /// initialization statements guarantee these variables hold the original
  /// iteration's values whenever the body runs. The evaluator uses this
  /// tuple as the identity of an execution instance (Definition 3.3).
  std::vector<std::string> BodyIndexVars;

  unsigned numLoops() const { return static_cast<unsigned>(Loops.size()); }

  /// \returns the position (0-based, outermost = 0) of the loop binding
  /// \p Var, or -1 if no loop binds it.
  int loopIndexOf(const std::string &Var) const;

  /// True if \p Name is bound by some loop of this nest.
  bool bindsVar(const std::string &Name) const {
    return loopIndexOf(Name) >= 0;
  }

  /// Collects all array references in the body: the write (LHS) refs and
  /// the read refs found in RHS trees.
  void collectWrites(std::vector<ArrayRef> &Out) const;
  void collectReads(std::vector<ArrayRef> &Out) const;

  /// Structural sanity checks for a *source* nest (before transformation):
  /// distinct index variables, bounds of loop k reference only outer index
  /// variables, body mentions only bound index variables or invariants.
  /// \returns an empty string if valid, else a description of the problem.
  std::string validate() const;

  /// Renders the nest in the loop language (parsable by Parser).
  std::string str() const;

  /// The symbolic parameters: every variable some bound, step, init,
  /// subscript or right-hand side mentions that no loop, init statement
  /// or body index variable defines. Running the nest needs a value for
  /// each (e.g. the block sizes a `block 1 3 bj bk bi` step introduces).
  std::set<std::string> freeSymbols() const;

  /// Convenience: sets BodyIndexVars to the loop variables (call after
  /// building an original nest by hand).
  void sealAsSource();
};

/// Collects array-read references appearing in \p E (CallExpr nodes whose
/// callee is in \p ArrayNames) into \p Out.
void collectArrayReads(const ExprRef &E, const std::set<std::string> &ArrayNames,
                       std::vector<ArrayRef> &Out);

} // namespace irlt

#endif // IRLT_IR_LOOPNEST_H
