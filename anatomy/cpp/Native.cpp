//===- anatomy/cpp/Native.cpp - Native speedup and execution checks ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ground-truth parts of the correctness gate: concrete execution
/// (Pipeline::verify) of legal sequences, and compiled execution
/// (cgen::emitProgram + runNative) whose checksums must match between the
/// original and the transformed nest. The compiled run also times both
/// kernels, which gives winner_speedup. All of it runs outside the timed
/// window.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Pipeline.h"
#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "engine/Wire.h"
#include "search/CostModel.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

using namespace irlt;

namespace anatomy {

namespace {

/// Bindings for every free symbol of \p Orig and \p Xf: the original's
/// symbols (problem sizes) get \p Size, symbols only the transformed nest
/// has (symbolic block sizes) get \p Block.
std::map<std::string, int64_t> bindings(const LoopNest &Orig,
                                        const LoopNest &Xf, int64_t Size,
                                        int64_t Block) {
  std::map<std::string, int64_t> B;
  for (const auto &KV : search::CostModel::defaultBindings(Xf))
    B[KV.first] = Block;
  for (const auto &KV : search::CostModel::defaultBindings(Orig))
    B[KV.first] = Size;
  return B;
}

/// Concrete-execution equivalence of \p Xf against \p Orig at small
/// sizes; a definite disagreement fails the gate.
void verifyOne(const api::Pipeline &P, const std::string &What,
               const LoopNest &Orig, const LoopNest &Xf, Report &R) {
  EvalConfig EC;
  EC.Params = bindings(Orig, Xf, 7, 3);
  EC.MaxInstances = 200'000;
  VerifyResult V = P.verify(Orig, Xf, EC);
  ++R.G.Attempted;
  ++R.Counters["gate.verified"];
  if (!V.Ok && !V.BudgetExceeded)
    R.G.fail("verify: " + What + ": " + V.Problem);
}

} // namespace

void verifySample(const std::vector<std::string> &Lines, uint64_t Seed,
                  unsigned SampleSize, Report &R) {
  api::Pipeline P;
  std::vector<size_t> Order(Lines.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  fuzz::Rng Rng(fuzz::mix64(Seed ^ 0x7e21f7ull));
  shuffle(Order, Rng);
  unsigned Done = 0;
  for (size_t I : Order) {
    if (Done == SampleSize)
      break;
    ErrorOr<engine::BatchRequest> Req = engine::parseRequestLine(Lines[I], 1);
    if (!Req || !Req->Auto.empty())
      continue;
    ErrorOr<LoopNest> Nest = P.loadNest(Req->NestSource);
    if (!Nest)
      continue;
    ErrorOr<TransformSequence> Seq = P.parseScript(Req->Script,
                                                   Nest->numLoops());
    if (!Seq)
      continue;
    TransformSequence S = Req->Reduce ? Seq->reduced() : *Seq;
    if (!P.checkLegality(S, *Nest).Legal)
      continue;
    ErrorOr<LoopNest> Xf = P.apply(S, *Nest);
    if (!Xf) {
      R.G.fail("verify: a legal sequence failed to apply: " + Req->Id);
      continue;
    }
    verifyOne(P, Req->Id, *Nest, *Xf, R);
    ++Done;
  }
}

void runNative(const Options &O, const std::vector<NativePair> &Pairs,
               Report &R) {
  std::string CC = cgen::probeCompiler();
  if (CC.empty()) {
    R.G.fail("native: no host C compiler");
    return;
  }
  std::string Dir = O.WorkDir + "/native";
  std::filesystem::create_directories(Dir);
  api::Pipeline P;
  double LogSum = 0;
  unsigned Count = 0;
  std::vector<double> CompileMs, NativeMs;
  std::string PerPair;
  for (const NativePair &NP : Pairs) {
    ErrorOr<LoopNest> Nest = P.loadNest(NP.NestSource);
    if (!Nest) {
      R.G.fail("native: corpus nest " + NP.Name + " does not parse");
      continue;
    }
    search::SearchOptions SO;
    SO.Obj = search::Objective::Locality;
    SO.Beam = 2;
    SO.Depth = 1;
    SO.Threads = 1;
    search::SearchResult SR = P.searchAuto(*Nest, SO);
    if (!SR.Best)
      continue;
    const TransformSequence &Seq = SR.Best->Seq;
    ErrorOr<LoopNest> Xf = P.apply(Seq, *Nest);
    if (!Xf) {
      R.G.fail("native: legal sequence for " + NP.Name + " failed to apply");
      continue;
    }
    verifyOne(P, NP.Name, *Nest, *Xf, R);
    if (!cgen::checkEmittable(*Nest).empty() ||
        !cgen::checkEmittable(*Xf).empty())
      continue;

    // Arrays of at most 1 MiB each, so both images stay in a core's L2
    // and neither memory traffic from other processes nor one run's
    // physical page placement moves the kernel times; L1 locality still
    // separates the loop orders. Three-deep nests start at n = 192
    // (matmul's arrays are then 288 KiB), two-deep ones at a prime n so
    // row strides stay off powers of two; a size whose largest array is
    // bigger shrinks.
    int64_t Size = Nest->numLoops() <= 2 ? 353 : 192;
    cgen::ProgramOptions PO;
    PO.Seed = O.Seed;
    PO.TimingReps = 15;
    PO.UseOpenMP = false;
    ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
        std::vector<cgen::ArrayShape>();
    for (;; Size = Size * 3 / 4) {
      PO.Bindings = bindings(*Nest, *Xf, Size, 32);
      Shapes = cgen::arrayShapes(*Nest, PO.Bindings, 1u << 22);
      if (!Shapes)
        break;
      uint64_t Largest = 0;
      for (const cgen::ArrayShape &A : *Shapes)
        Largest = std::max(Largest, A.cells());
      if (Largest * sizeof(int64_t) <= (1u << 20) || Size < 16)
        break;
    }
    if (!Shapes)
      continue;
    ErrorOr<std::string> Prog = cgen::emitProgram(*Nest, &*Xf, *Shapes, PO);
    if (!Prog) {
      R.G.fail("native: emit failed for " + NP.Name + ": " + Prog.message());
      continue;
    }
    cgen::NativeRunOptions RO;
    RO.Compiler = CC;
    RO.OpenMP = false;
    RO.WorkDir = Dir;
    // Three compiled runs, median ratio: page placement differs per
    // process and can move one run's cache conflicts by a factor of two.
    std::vector<double> Ratios;
    for (unsigned Run = 0; Run < 3; ++Run) {
      Clock::time_point T0 = Clock::now();
      cgen::NativeResult NR = cgen::runNative(*Prog, RO);
      double SpanMs = usBetween(T0, Clock::now()) / 1000.0;
      ++R.G.Attempted;
      if (NR.Status != cgen::NativeStatus::Ok || !NR.Match ||
          NR.ChecksumOriginal != NR.ChecksumTransformed) {
        R.G.fail("native: " + NP.Name + ": " +
                 cgen::nativeStatusName(NR.Status) + " " + NR.Detail);
        break;
      }
      if (!NR.NsOriginal || !NR.NsTransformed)
        break;
      double KernelMs =
          static_cast<double>(NR.NsOriginal + NR.NsTransformed) *
          PO.TimingReps * 1e-6;
      CompileMs.push_back(SpanMs - KernelMs);
      NativeMs.push_back(static_cast<double>(NR.NsOriginal) * 1e-6);
      Ratios.push_back(static_cast<double>(NR.NsOriginal) /
                       static_cast<double>(NR.NsTransformed));
    }
    if (Ratios.size() != 3)
      continue;
    double Ratio = median(Ratios);
    LogSum += std::log(Ratio);
    PerPair += (PerPair.empty() ? "" : " ") + NP.Name + "=" +
               std::to_string(Ratio).substr(0, 5);
    ++Count;
  }
  if (!Count) {
    R.G.fail("native: no corpus pair compiled");
    return;
  }
  R.e2e("winner_speedup", std::exp(LogSum / Count), "x");
  R.Notes["winner_speedup"] = "geomean over " + std::to_string(Count) +
                              " locality search winners: " + PerPair;
  R.layer("cgen.compile_ms", mean(CompileMs), "ms");
  R.layer("cgen.native_ms", mean(NativeMs), "ms");
}

} // namespace anatomy
