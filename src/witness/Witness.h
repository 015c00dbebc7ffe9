//===- witness/Witness.h - Machine-checkable legality certificates -------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Certificates for legality verdicts (docs/LEGALITY.md). The uniform
/// legality test of Section 3.2 answers yes/no; this layer makes either
/// answer *checkable by a third party that does not trust the test*:
///
///  - An acceptance certificate is the per-stage rule-application trace:
///    for every stage t_k, the dependence set entering it and the set
///    t_k's Table 2 mapping rule produced, ending in the final set the
///    lexicographic test ran on.
///
///  - A rejection certificate names the structured reject kind and, for
///    lex-negative rejections, the offending mapped vector together with
///    a concrete lexicographically negative member tuple - and, when
///    bounded concrete execution can find one, a concrete violating
///    iteration pair (two dependent instances of the original nest that
///    the transformed nest reorders or leaves unordered under a pardo),
///    which replays through the Evaluator independently of the legality
///    machinery.
///
/// certify() renders the incremental legality engine's stage walk
/// (legality/IncrementalEngine.h): the acceptance trace is the builder's
/// mapped set read before and after each extend(), and the verdict is
/// the builder's, so certification shares prefix-cache entries with
/// every other caller of the uniform test and walks no stage itself.
///
/// checkCertificate() is the machine checker: it re-derives every stage
/// mapping, re-tests tuple membership and lexicographic negativity, and
/// replays concrete pairs by execution. It shares no verdict state with
/// certify() beyond the template mapping rules themselves.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_WITNESS_WITNESS_H
#define IRLT_WITNESS_WITNESS_H

#include "eval/Evaluator.h"
#include "transform/Sequence.h"

#include <map>
#include <string>
#include <vector>

namespace irlt {
namespace witness {

/// Budgets and parameter bindings for the concrete-execution parts of
/// certification (finding and replaying violating iteration pairs).
struct WitnessOptions {
  /// Parameter bindings tried in order when hunting a concrete violating
  /// pair. Mirrors the fuzzer's defaults so certificates and fuzz
  /// reproducers agree on what "concrete" means.
  std::vector<std::map<std::string, int64_t>> Bindings;
  uint64_t MaxInstances = 200'000;
  /// Wall budget per evaluation; 0 keeps certification deterministic.
  uint64_t WallBudgetMillis = 0;

  static WitnessOptions defaults();
};

/// One stage of an acceptance trace: the Table 2 rule application
/// D_k -> D_{k+1} of stage \p Stage (1-based).
struct StageTrace {
  unsigned Stage = 0;
  std::string Template; ///< TransformTemplate::str() of the stage
  DepSet In;            ///< dependence set entering the stage
  DepSet Out;           ///< set produced by the stage's mapping rule
};

/// A machine-checkable certificate for one legality verdict.
struct Certificate {
  bool Accepted = false;

  //===--- Acceptance side --------------------------------------------------
  /// Per-stage rule-application trace; Stages.back().Out == FinalDeps.
  std::vector<StageTrace> Stages;
  /// The set the final lexicographic test ran on.
  DepSet FinalDeps;

  //===--- Rejection side ---------------------------------------------------
  LegalityResult::RejectKind Kind = LegalityResult::RejectKind::None;
  /// Rendered reason (LegalityResult::Reason).
  std::string Reason;
  /// Structured reason (stage index, template name).
  Diag Why;

  /// Lex-negative rejections: a mapped vector admitting a negative tuple,
  /// plus one concrete lexicographically negative member of its Tuples().
  bool HasBadVector = false;
  DepVector BadVector;
  std::vector<int64_t> BadTuple;

  /// A concrete violating iteration pair found by bounded execution under
  /// PairBinding: SrcIter depends-before DstIter in the original nest,
  /// but the transformed nest runs them at positions SrcPosT >= DstPosT
  /// (or unordered under a pardo loop).
  bool HasPair = false;
  std::map<std::string, int64_t> PairBinding;
  std::vector<int64_t> SrcIter;
  std::vector<int64_t> DstIter;
  uint64_t SrcPosT = 0;
  uint64_t DstPosT = 0;

  /// Human-readable rendering of the whole certificate.
  std::string str() const;
};

/// Runs the uniform legality test on (\p Seq, \p Nest, \p D) and wraps
/// the verdict in a certificate. Never fails: when a witness ingredient
/// cannot be produced (e.g. no binding yields a concrete pair within
/// budget) the certificate simply carries less evidence - the flags say
/// what is present.
Certificate certify(const TransformSequence &Seq, const LoopNest &Nest,
                    const DepSet &D,
                    const WitnessOptions &Opts = WitnessOptions::defaults());

/// The machine checker: re-derives every claim \p C makes about
/// (\p Seq, \p Nest, \p D). \returns an empty string when the
/// certificate checks out, else a description of the first discrepancy.
std::string checkCertificate(const Certificate &C,
                             const TransformSequence &Seq,
                             const LoopNest &Nest, const DepSet &D,
                             const WitnessOptions &Opts =
                                 WitnessOptions::defaults());

/// Replays a claimed violating iteration pair through the Evaluator:
/// verifies that \p Src and \p Dst (original BodyIndexVars tuples) are
/// dependent instances executing Src-before-Dst in \p Original, and that
/// \p Transformed either runs them with Src at-or-after Dst or leaves
/// them unordered under a pardo loop. \returns empty on success, else
/// the discrepancy. Shared by checkCertificate() and the tests that
/// round-trip VerifyCounterexample values through the checker.
std::string checkViolationPair(const LoopNest &Original,
                               const LoopNest &Transformed,
                               const std::vector<int64_t> &Src,
                               const std::vector<int64_t> &Dst,
                               const EvalConfig &Config);

/// Extracts one concrete lexicographically negative tuple from
/// Tuples(\p V), or an empty vector when none exists (mirrors
/// DepVector::canBeLexNegative). Exposed for tests.
std::vector<int64_t> lexNegativeTuple(const DepVector &V);

/// Serializes \p Seq into the irlt-opt script syntax (driver/Script.h),
/// one directive per line, so a certificate or validation reproducer can
/// be replayed with `irlt-opt NEST -f SCRIPT`. Fails for template kinds
/// the script language cannot express (custom templates other than
/// StripMine, or symbolic sizes that are not plain names).
ErrorOr<std::string> scriptForSequence(const TransformSequence &Seq);

} // namespace witness
} // namespace irlt

#endif // IRLT_WITNESS_WITNESS_H
