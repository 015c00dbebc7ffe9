//===- search/AccessProgram.h - Lowered address-stream programs ----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost model's fast path: a candidate nest lowered, under concrete
/// parameter bindings, into a flat slot-indexed program, and measured by
/// streaming its addresses straight into the cache simulator.
///
/// Lowering folds every parameter to a constant, gives every loop and
/// init variable a slot, numbers the array references, and turns bounds,
/// steps, inits, subscripts and right-hand sides into small postfix
/// programs over the slots; identical subscripts share one program.
/// Running a program takes two passes:
///
///  1. walk the iteration space evaluating only bounds, steps, inits and
///     subscripts, enforcing the instance and header budgets and the
///     overflow guard, to learn each array's subscript extents;
///  2. lay the arrays out from those extents (ArrayLayout, the same
///     policy the interpreter path uses; each reference's address is an
///     affine function of its subscripts), walk again computing body
///     values on a dense store, and feed each address to CacheSim in the
///     interpreter's access order: right-hand-side reads left to right
///     (every min/max operand included), then the write.
///
/// The result is bit-identical to evaluating the nest with the
/// interpreter (eval/Evaluator.h) and replaying its trace, in every
/// outcome: a miss ratio, 0.0 for a nest that executes no body, and no
/// cost for overflow, an exhausted budget, or inconsistent array arity.
/// Nests whose addresses could depend on array values are not lowered
/// at all; the cost model measures those with the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SEARCH_ACCESSPROGRAM_H
#define IRLT_SEARCH_ACCESSPROGRAM_H

#include "cachesim/Cache.h"
#include "ir/LoopNest.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace search {

class AccessProgram {
public:
  /// Dense-store size above which run() declines (OverCellCap) instead
  /// of allocating: 4Mi cells, 32 MiB.
  static constexpr uint64_t MaxCells = uint64_t(1) << 22;

  /// Lowers \p Nest with \p Params bound. Returns nullopt when the nest
  /// is outside the lowered form: an array read inside a bound, step,
  /// init or subscript; a variable whose value would depend on execution
  /// history (an init variable read by a bound, a loop variable an init
  /// redefines) or that nothing binds; or a call the interpreter would
  /// reject.
  static std::optional<AccessProgram>
  lower(const LoopNest &Nest, const std::map<std::string, int64_t> &Params);

  enum class Status {
    Measured,   ///< MissRatio holds the simulated miss ratio
    NoCost,     ///< overflow, exhausted budget, or inconsistent arity
    OverCellCap ///< the dense store would exceed the cell cap
  };
  struct Result {
    Status St = Status::NoCost;
    double MissRatio = 0.0;
  };

  /// Runs the two passes under \p Cache. \p MaxInstances bounds body
  /// executions and loop headers separately, as the interpreter's
  /// budget does. Arithmetic runs under an overflow guard of its own.
  Result run(const CacheConfig &Cache, uint64_t MaxInstances) const;

private:
  class Lowerer;
  class Runner;

  /// One instruction of a postfix program.
  struct Op {
    enum Kind : uint8_t {
      Const,   ///< push Imm
      Slot,    ///< push slot Arg
      SlotAdd, ///< push addChecked(slot Arg, Imm): `i + 1`, `i - 1` fused
      Add,
      Sub,
      Mul,
      Div,
      Mod,
      Min, ///< pop Arg operands, push their minimum
      Max, ///< pop Arg operands, push their maximum
      Sqrt,
      Abs,
      Sgn,
      Read ///< push the element reference Arg addresses
    };
    Kind K;
    uint32_t Arg = 0;
    int64_t Imm = 0;
  };

  /// A postfix program: the half-open range [Begin, End) of Ops.
  struct Prog {
    uint32_t Begin = 0, End = 0;
  };
  struct LoopCode {
    Prog Lower, Upper, Step;
  };
  /// One array reference: its array, and per dimension the index of its
  /// subscript in Subscripts.
  struct RefCode {
    unsigned Array = 0; ///< index into ArrayNames (sorted by name)
    std::vector<unsigned> Subs;
  };
  struct StmtCode {
    Prog RHS;
    unsigned Write = 0; ///< index into Refs of the assignment's target
  };

  std::vector<Op> Ops;
  std::vector<LoopCode> Loops; ///< slot K holds loop K's variable
  std::vector<Prog> Inits;     ///< slot numLoops + I holds init I's value
  /// The distinct subscript programs of all references. Subscripts read
  /// no array, so each body execution evaluates each of them once, right
  /// after the inits: pass 1 tracks their ranges, pass 2 addresses with
  /// their values.
  std::vector<Prog> Subscripts;
  std::vector<RefCode> Refs;
  std::vector<StmtCode> Stmts;
  /// Referenced arrays in name order: ids double as declaration order,
  /// so bases come out name-sorted exactly as on the interpreter path.
  std::vector<std::string> ArrayNames;
  /// Subscript count per array; meaningless when ArityMismatch.
  std::vector<unsigned> Arity;
  /// Some array is referenced with two different subscript counts: the
  /// layout is undefined, so any execution that accesses memory has no
  /// cost.
  bool ArityMismatch = false;
  unsigned MaxStack = 1;
};

} // namespace search
} // namespace irlt

#endif // IRLT_SEARCH_ACCESSPROGRAM_H
