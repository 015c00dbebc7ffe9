//===- tools/irlt-cgen.cpp - Emit / compile / run native harnesses --------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-cgen: lower an (original, transformed) nest pair into one
/// standalone differential C program (docs/CODEGEN.md), and optionally
/// compile and run it with the host compiler.
///
///   irlt-cgen FILE [options]
///     -s, --script TEXT    transformation script (see driver/Script.h)
///     -f, --script-file F  read the script from a file
///     --bind k=v,...       scalar parameter bindings
///                          (default n=16,m=12,b=4, overridable per key)
///     --seed N             array-image seed (default 42)
///     --reps N             timing repetitions in the harness (default 0)
///     -o FILE              write the program to FILE instead of stdout
///     --run                compile and run instead of printing
///     --cc PATH            compiler for --run (default: $IRLT_CC probe)
///     --no-openmp          emit/compile without OpenMP
///     --timeout-ms N       run timeout for --run (default 60000)
///     --keep               keep the generated .c/.bin files
///     --json               one versioned JSON record instead of text
///
/// Exit status: 0 emitted / run matched, 1 usage/parse/emission error,
/// 2 the harness reported a mismatch, 3 compile/run infrastructure
/// failure, 4 no host C compiler.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "support/Bindings.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/Printing.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace irlt;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [-s SCRIPT | -f SCRIPTFILE] [--bind k=v,...]\n"
               "          [--seed N] [--reps N] [-o FILE] [--run] [--cc PATH]\n"
               "          [--no-openmp] [--timeout-ms N] [--keep] [--json]\n"
               "exit status: 0 emitted/matched, 1 error, 2 mismatch,\n"
               "             3 compile/run failure, 4 no compiler\n",
               Argv0);
}

int fail(bool JsonMode, const std::string &Message) {
  if (JsonMode) {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-cgen")
        .field("ok", false)
        .field("error", Message)
        .endObject();
    std::printf("%s\n", W.str().c_str());
  } else {
    std::fprintf(stderr, "irlt-cgen: %s\n", Message.c_str());
  }
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string NestPath, ScriptText, ScriptPath, OutPath, CCPath, BindSpec;
  uint64_t Seed = 42;
  unsigned Reps = 0;
  uint64_t TimeoutMs = 60000;
  bool Run = false, OpenMP = true, Keep = false, JsonMode = false;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    if (A == "-s" || A == "--script") {
      if (!Next(ScriptText))
        return usage(Argv[0]), 1;
    } else if (A == "-f" || A == "--script-file") {
      if (!Next(ScriptPath))
        return usage(Argv[0]), 1;
    } else if (A == "--bind") {
      if (!Next(BindSpec))
        return usage(Argv[0]), 1;
    } else if (A == "--seed") {
      std::string V;
      if (!Next(V))
        return usage(Argv[0]), 1;
      Seed = strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--reps") {
      std::string V;
      if (!Next(V))
        return usage(Argv[0]), 1;
      Reps = static_cast<unsigned>(strtoul(V.c_str(), nullptr, 10));
    } else if (A == "--timeout-ms") {
      std::string V;
      if (!Next(V))
        return usage(Argv[0]), 1;
      TimeoutMs = strtoull(V.c_str(), nullptr, 10);
    } else if (A == "-o") {
      if (!Next(OutPath))
        return usage(Argv[0]), 1;
    } else if (A == "--cc") {
      if (!Next(CCPath))
        return usage(Argv[0]), 1;
    } else if (A == "--run") {
      Run = true;
    } else if (A == "--no-openmp") {
      OpenMP = false;
    } else if (A == "--keep") {
      Keep = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "-h" || A == "--help") {
      usage(Argv[0]);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      usage(Argv[0]);
      return 1;
    } else if (NestPath.empty()) {
      NestPath = A;
    } else {
      usage(Argv[0]);
      return 1;
    }
  }
  if (NestPath.empty()) {
    usage(Argv[0]);
    return 1;
  }

  // Default bindings cover the corpus's free parameters; --bind
  // overrides per key.
  std::map<std::string, int64_t> Bindings{{"n", 16}, {"m", 12}, {"b", 4}};
  if (!BindSpec.empty() && !parseBindings(BindSpec, Bindings))
    return fail(JsonMode, "malformed --bind '" + BindSpec + "'");

  std::string NestSource;
  if (!readFile(NestPath, NestSource))
    return fail(JsonMode, "cannot read " + NestPath);
  if (!ScriptPath.empty() && !readFile(ScriptPath, ScriptText))
    return fail(JsonMode, "cannot read " + ScriptPath);

  api::Pipeline P;
  ErrorOr<LoopNest> Nest = P.loadNest(NestSource);
  if (!Nest)
    return fail(JsonMode, "parse error: " + Nest.message());

  ErrorOr<LoopNest> Transformed = Failure("unset");
  bool HaveTransformed = !ScriptText.empty();
  if (HaveTransformed) {
    Transformed = P.applyScript(*Nest, ScriptText);
    if (!Transformed)
      return fail(JsonMode, "script error: " + Transformed.message());
  }
  const LoopNest *XformPtr = HaveTransformed ? &*Transformed : nullptr;

  std::string Reason = cgen::checkEmittable(*Nest);
  if (Reason.empty() && XformPtr)
    Reason = cgen::checkEmittable(*XformPtr);
  if (!Reason.empty())
    return fail(JsonMode, "not emittable: " + Reason);

  ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
      cgen::arrayShapes(*Nest, Bindings, 1u << 22);
  if (!Shapes)
    return fail(JsonMode, "shape inference failed: " + Shapes.message());

  cgen::ProgramOptions PO;
  PO.Seed = Seed;
  PO.Bindings = Bindings;
  PO.TimingReps = Reps;
  PO.UseOpenMP = OpenMP;
  ErrorOr<std::string> Program = cgen::emitProgram(*Nest, XformPtr, *Shapes, PO);
  if (!Program)
    return fail(JsonMode, "emission failed: " + Program.message());

  if (!Run) {
    if (OutPath.empty()) {
      std::fputs(Program->c_str(), stdout);
    } else {
      std::ofstream Out(OutPath, std::ios::binary);
      Out << *Program;
      if (!Out)
        return fail(JsonMode, "cannot write " + OutPath);
    }
    if (JsonMode) {
      json::JsonWriter W;
      json::beginToolRecord(W, "irlt-cgen")
          .field("ok", true)
          .field("record", "emitted")
          .field("bytes", static_cast<uint64_t>(Program->size()))
          .field("out", OutPath.empty() ? "-" : OutPath)
          .endObject();
      std::printf("%s\n", W.str().c_str());
    }
    return 0;
  }

  cgen::NativeRunOptions RO;
  RO.Compiler = CCPath;
  RO.OpenMP = OpenMP;
  RO.RunTimeoutMs = TimeoutMs;
  RO.KeepFiles = Keep;
  cgen::NativeResult R = cgen::runNative(*Program, RO);

  if (JsonMode) {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-cgen")
        .field("ok", R.Status == cgen::NativeStatus::Ok)
        .field("record", "native-run")
        .field("status", cgen::nativeStatusName(R.Status))
        .field("detail", R.Detail)
        .field("match", R.Match)
        .field("checksum_original",
               formatStr("0x%016llx",
                         static_cast<unsigned long long>(R.ChecksumOriginal)))
        .field("checksum_transformed",
               formatStr("0x%016llx", static_cast<unsigned long long>(
                                          R.ChecksumTransformed)))
        .field("oob_original", R.OobOriginal)
        .field("oob_transformed", R.OobTransformed)
        .field("ns_original", R.NsOriginal)
        .field("ns_transformed", R.NsTransformed)
        .field("threads", R.Threads)
        .field("cells", R.Cells)
        .field("source", R.SourcePath)
        .endObject();
    std::printf("%s\n", W.str().c_str());
  } else {
    std::printf("status: %s\n", cgen::nativeStatusName(R.Status));
    std::printf("detail: %s\n", R.Detail.c_str());
    if (R.Status == cgen::NativeStatus::Ok ||
        R.Status == cgen::NativeStatus::Mismatch) {
      std::printf("checksum original:    0x%016llx\n",
                  static_cast<unsigned long long>(R.ChecksumOriginal));
      std::printf("checksum transformed: 0x%016llx\n",
                  static_cast<unsigned long long>(R.ChecksumTransformed));
      if (R.NsOriginal || R.NsTransformed)
        std::printf("wall-clock: original %llu ns, transformed %llu ns "
                    "(%d thread(s))\n",
                    static_cast<unsigned long long>(R.NsOriginal),
                    static_cast<unsigned long long>(R.NsTransformed),
                    static_cast<int>(R.Threads));
    }
    if (!R.SourcePath.empty())
      std::printf("source: %s\n", R.SourcePath.c_str());
  }

  switch (R.Status) {
  case cgen::NativeStatus::Ok:
    return 0;
  case cgen::NativeStatus::Mismatch:
    return 2;
  case cgen::NativeStatus::NoCompiler:
    return 4;
  default:
    return 3;
  }
}
