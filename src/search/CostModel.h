//===- search/CostModel.h - Simulated-locality cost model ----------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effectiveness half of the Section 5/6 optimizer story: rank legal
/// transformation alternatives without committing to any. A transformed
/// nest is executed under *small* parameter bindings, and its address
/// stream fed through the set-associative cache simulator (src/cachesim/);
/// the resulting miss ratio is the locality cost.
///
/// The search measures the nest its own full-mode legality walk built
/// (missRatio(const LoopNest &)), so each candidate is applied once, by
/// the walk that also confirms it. The sequence overload applies the
/// sequence to the source nest first and memoizes on the caller's key;
/// it serves callers that hold only a sequence (the fuzzer's --search
/// oracle, the anatomy trace).
///
/// Execution goes through a lowered access program (AccessProgram.h):
/// the nest compiled under the bindings into slot-indexed postfix code
/// and run in two passes. Its result is bit-identical to the reference
/// measurement - the tree-walking interpreter (eval/Evaluator.h) with
/// access recording, replayed through the simulator - which stays
/// available as referenceMissRatio() and is the only path for nests the
/// lowering declines (array reads that steer addressing or bounds, a
/// store above the cell cap).
///
/// Parallelize never changes the sequential trace, so a candidate with a
/// trailing Parallelize costs the same as its prefix.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SEARCH_COSTMODEL_H
#define IRLT_SEARCH_COSTMODEL_H

#include "cachesim/Cache.h"
#include "support/MathUtils.h"
#include "transform/Sequence.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace irlt {
namespace search {

/// Configuration of the locality measurement.
struct CostModelOptions {
  /// Parameter bindings the evaluator runs under. Must bind every free
  /// (non-index) symbol of the nest; defaultBindings() fills them in.
  std::map<std::string, int64_t> Params;
  /// Geometry of the simulated cache.
  CacheConfig Cache{8 * 1024, 64, 4};
  /// Evaluator instance budget per measurement; a candidate whose trace
  /// exceeds it gets no cost (and is pruned by the driver).
  uint64_t MaxInstances = 1'000'000;
};

/// Memoizing miss-ratio oracle for one source nest.
class CostModel {
public:
  CostModel(const LoopNest &Nest, CostModelOptions Opts);

  /// Simulated miss ratio of Seq(Nest) in [0, 1], or nullopt when the
  /// sequence cannot be applied/executed under the bindings (apply
  /// failure, overflow, instance budget). Memoized on \p Key, which must
  /// be the reduce()-canonical rendering of \p Seq. Thread-safe.
  std::optional<double> missRatio(const TransformSequence &Seq,
                                  const std::string &Key);

  /// Simulated miss ratio of \p Transformed, a nest some sequence made
  /// from the source nest, or nullopt when it cannot be executed under
  /// the bindings (overflow, instance budget). Not memoized. Thread-safe.
  std::optional<double> missRatio(const LoopNest &Transformed);

  /// The reference measurement of \p Seq: the interpreter runs the
  /// transformed nest with access recording and the trace is replayed
  /// through the simulator. Not memoized. missRatio() must equal it in
  /// every case; the differential tests and the fuzzer's --search oracle
  /// hold it to that. Thread-safe.
  std::optional<double> referenceMissRatio(const TransformSequence &Seq) const;

  /// Measurements that fell back to the reference path: the lowering
  /// declined the transformed nest, or its store was over the cell cap.
  uint64_t referenceFallbacks() const { return Fallbacks.load(); }

  /// Why the model cannot run at all (e.g. the nest calls an opaque
  /// function the evaluator cannot bind); empty when usable.
  const std::string &unusableReason() const { return Unusable; }

  /// Default small bindings: every free (non-index) symbol of \p Nest
  /// mapped to 24 - big enough that a 3-deep nest's working set spills a
  /// tiny cache, small enough to trace in milliseconds.
  static std::map<std::string, int64_t> defaultBindings(const LoopNest &Nest);

private:
  const LoopNest &Nest;
  CostModelOptions Opts;
  std::string Unusable;
  std::mutex MemoMutex;
  std::unordered_map<std::string, std::optional<double>> Memo;
  std::atomic<uint64_t> Fallbacks{0};

  std::optional<double> interpret(const LoopNest &Transformed,
                                  const OverflowGuard &Guard) const;
};

} // namespace search
} // namespace irlt

#endif // IRLT_SEARCH_COSTMODEL_H
