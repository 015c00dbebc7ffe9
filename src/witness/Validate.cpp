//===- witness/Validate.cpp - Guarded candidate validation ladder --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "witness/Validate.h"

#include "cgen/NativeCheck.h"
#include "eval/Verify.h"
#include "fuzz/Fuzzer.h"
#include "support/Printing.h"

#include <functional>
#include <set>

using namespace irlt;
using namespace irlt::witness;

ValidateOptions ValidateOptions::defaults() {
  ValidateOptions O;
  O.Bindings = WitnessOptions::defaults().Bindings;
  return O;
}

ValidateOptions ValidateOptions::nativeDefaults() {
  ValidateOptions O = defaults();
  O.Native = true;
  O.MaxInstances = 1'000'000;
  // n=160 at depth 3 is ~4.1M instances: beyond the raised interpreted
  // budget, cheap for a compiled binary.
  O.NativeBindings = {{{"n", 72}, {"m", 48}, {"b", 8}},
                      {{"n", 160}, {"m", 120}, {"b", 16}}};
  return O;
}

const char *irlt::witness::validateStatusName(ValidateStatus S) {
  switch (S) {
  case ValidateStatus::Confirmed:
    return "confirmed";
  case ValidateStatus::Disproved:
    return "disproved";
  case ValidateStatus::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

namespace {

std::string bindingStr(const std::map<std::string, int64_t> &B) {
  std::string S;
  for (const auto &[K, V] : B)
    S += (S.empty() ? "" : ",") + K + "=" + std::to_string(V);
  return S;
}

/// Dumps a disproof as a replayable reproducer in the fuzzer's trio
/// format. The stem hashes the nest and script so repeated runs of the
/// same disproof overwrite one file instead of accumulating.
std::string dumpDisproof(const LoopNest &Nest, const TransformSequence &Seq,
                         const CandidateOutcome &Outcome,
                         const std::string &Binding,
                         const ValidateOptions &Opts,
                         const std::string &Tier = "interpreter") {
  if (Opts.ReproDir.empty())
    return "";
  ErrorOr<std::string> Script = scriptForSequence(Seq);
  std::string NestSrc = Nest.str();
  std::string ScriptSrc = Script ? *Script : "";
  std::string Stem =
      "candidate-" + std::to_string(std::hash<std::string>{}(
                         NestSrc + "\n---\n" + ScriptSrc));
  std::string NestPath = Opts.ReproDir + "/" + Stem + ".nest";
  std::string ScriptPath = Opts.ReproDir + "/" + Stem + ".script";
  std::vector<std::string> Replay;
  if (Script) {
    Replay.push_back("irlt-opt " + NestPath + " -f " + ScriptPath +
                     " --legality --verify " + Binding);
    if (Tier != "interpreter")
      Replay.push_back("irlt-cgen " + NestPath + " -f " + ScriptPath +
                       " --run --bind " + Binding);
  }
  std::string Note = "sequence: " + Seq.str() + "\ndetail: " + Outcome.Detail;
  if (!Script)
    Note += "\n(sequence not expressible as a script: " + Script.message() +
            ")";
  return fuzz::writeReproducer(Opts.ReproDir, Stem, NestSrc, ScriptSrc, Note,
                               Replay, Tier);
}

} // namespace

CandidateOutcome irlt::witness::validateCandidate(
    const LoopNest &Nest, const TransformSequence &Seq,
    const ValidateOptions &Opts) {
  CandidateOutcome R;

  ErrorOr<LoopNest> Out = applySequence(Seq, Nest);
  if (!Out) {
    // A candidate that cannot be code-generated is useless regardless of
    // what the legality test thought of it; treat as disproved so the
    // ladder moves on.
    R.Status = ValidateStatus::Disproved;
    R.Detail = "sequence failed to apply: " + Out.message();
    R.Why = Out.diags().front();
    R.ReproPath = dumpDisproof(Nest, Seq, R, "", Opts);
    return R;
  }

  // Execution needs a value for every free symbol of both nests; the
  // interpreter asserts on an unbound one. Symbolic sizes in the script
  // (`block 1 3 bj bk bi`) introduce symbols no default binding names,
  // and such a candidate can be neither confirmed nor disproved here.
  std::set<std::string> Symbols = Nest.freeSymbols();
  Symbols.merge(Out->freeSymbols());
  for (const auto &Binding : Opts.Bindings) {
    std::vector<std::string> Unbound;
    for (const std::string &S : Symbols)
      if (!Binding.count(S))
        Unbound.push_back(S);
    if (Unbound.empty())
      continue;
    R.Status = ValidateStatus::Inconclusive;
    R.Detail = "binding " + bindingStr(Binding) + " leaves symbol(s) " +
               join(Unbound, ", ") + " unbound; cannot execute";
    return R;
  }

  bool SawBudget = false;
  unsigned Passed = 0;
  for (const auto &Binding : Opts.Bindings) {
    EvalConfig C;
    C.Params = Binding;
    C.MaxInstances = Opts.MaxInstances;
    C.WallBudgetMillis = Opts.WallBudgetMillis;
    VerifyResult V = verifyTransformed(Nest, *Out, C);
    if (V.Ok) {
      ++Passed;
      continue;
    }
    if (V.BudgetExceeded) {
      SawBudget = true;
      continue;
    }
    R.Status = ValidateStatus::Disproved;
    R.Detail = "binding " + bindingStr(Binding) + ": " + V.Problem;
    R.Why = Diag::error(V.Problem).inTemplate("validate");
    R.ReproPath = dumpDisproof(Nest, Seq, R, bindingStr(Binding), Opts);
    return R;
  }

  // Native tier (docs/CODEGEN.md): compile-and-run the differential
  // harness under bindings whose iteration spaces exceed the interpreted
  // budget. A native mismatch disproves; a missing compiler or an
  // unemittable nest only annotates the interpreted verdict.
  unsigned NativePassed = 0;
  std::string NativeNote;
  if (Opts.Native) {
    for (const auto &Binding : Opts.NativeBindings) {
      cgen::NativeCheckOptions NC;
      NC.Bindings = Binding;
      NC.MaxCells = Opts.NativeMaxCells;
      NC.Runner.RunTimeoutMs = Opts.NativeTimeoutMs;
      cgen::NativeCheckResult N = cgen::checkNative(Nest, &*Out, NC);
      if (N.Status == cgen::NativeCheckStatus::Match) {
        ++NativePassed;
        continue;
      }
      if (N.Status == cgen::NativeCheckStatus::Mismatch) {
        R.Status = ValidateStatus::Disproved;
        R.Detail = "native binding " + bindingStr(Binding) + ": " + N.Detail;
        R.Why = Diag::error(N.Detail).inTemplate("validate-native");
        R.ReproPath =
            dumpDisproof(Nest, Seq, R, bindingStr(Binding), Opts, "native");
        return R;
      }
      if (N.Status == cgen::NativeCheckStatus::Unavailable) {
        NativeNote = "; native tier skipped: no host C compiler";
        break;
      }
      // Skipped (unemittable / cell cap) or Failed (infrastructure):
      // the interpreted verdict stands, annotated.
      NativeNote = "; native tier skipped: " + N.Detail;
      break;
    }
    if (NativeNote.empty() && NativePassed > 0)
      NativeNote = "; native-confirmed under " +
                   std::to_string(NativePassed) + " binding(s)";
  }

  if (Passed > 0 && !SawBudget) {
    R.Status = ValidateStatus::Confirmed;
    R.Detail =
        "equivalent under " + std::to_string(Passed) + " binding(s)" +
        NativeNote;
  } else if (SawBudget && NativePassed == Opts.NativeBindings.size() &&
             NativePassed > 0) {
    // The interpreter ran out of budget but the native tier finished
    // every binding: that is exactly the case the backend exists for.
    R.Status = ValidateStatus::Confirmed;
    R.Detail = "interpreted budget exhausted, but native execution "
               "confirmed " +
               std::to_string(NativePassed) + " binding(s)";
  } else {
    R.Status = ValidateStatus::Inconclusive;
    R.Detail = (SawBudget ? "evaluation budget exhausted before a verdict"
                          : "no parameter bindings to validate under") +
               NativeNote;
  }
  return R;
}

LadderResult irlt::witness::validateLadder(
    const LoopNest &Nest, const std::vector<TransformSequence> &Candidates,
    const ValidateOptions &Opts) {
  LadderResult R;
  int FirstInconclusive = -1;
  for (size_t I = 0; I < Candidates.size(); ++I) {
    CandidateOutcome O = validateCandidate(Nest, Candidates[I], Opts);
    ValidateStatus S = O.Status;
    R.Outcomes.push_back(std::move(O));
    if (S == ValidateStatus::Confirmed) {
      R.Chosen = static_cast<int>(I);
      return R;
    }
    if (S == ValidateStatus::Inconclusive && FirstInconclusive < 0)
      FirstInconclusive = static_cast<int>(I);
  }
  // Nothing confirmed: fall back to the best candidate that at least
  // could not be disproved, else to the identity sequence.
  R.Chosen = FirstInconclusive;
  return R;
}
