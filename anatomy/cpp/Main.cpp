//===- anatomy/cpp/Main.cpp - Request-anatomy benchmark entry point ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// anatomy --workload search-mix|transform-mix|serve-front|all --seed N
///         --seconds S --trace 0|1 --corpus DIR --serve-binary PATH
///         --workdir DIR [--commit ID] [--selftest]
///
/// Prints each workload's report (metric lines and one stamped JSON
/// record), then as its last line one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. Exits 1 when the
/// correctness gate failed, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace irlt;
using namespace anatomy;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "anatomy: %s\nusage: anatomy --workload "
               "search-mix|transform-mix|serve-front|all --seed N "
               "--seconds S --trace 0|1 --corpus DIR --serve-binary PATH "
               "--workdir DIR [--commit ID] [--selftest]\n",
               Why);
  std::exit(2);
}

Report runWorkload(const Options &O, const std::string &Name) {
  Report R;
  R.Workload = Name;
  if (Name == "search-mix")
    runSearchMix(O, R);
  else if (Name == "transform-mix")
    runTransformMix(O, R);
  else if (Name == "serve-front")
    runServeFront(O, R);
  else
    usage("unknown workload");
  return R;
}

} // namespace

int anatomy::selfTest(const Options &Base) {
  int Bad = 0;
  for (const char *W : {"search-mix", "transform-mix", "serve-front"}) {
    Options O = Base;
    O.Tiny = true;
    O.Trace = true;
    O.Seconds = 2;
    Report A = runWorkload(O, W);
    Report B = runWorkload(O, W);
    bool Same = A.Counters == B.Counters && !A.Counters.empty();
    bool Clean = !A.G.Failed && !B.G.Failed;
    std::vector<CorpusNest> C = loadCorpus(O.CorpusDir);
    auto Make = [&](uint64_t Seed) {
      std::string Name = W;
      return Name == "search-mix"      ? makeSearchMix(C, Seed, true).Lines
             : Name == "transform-mix" ? makeTransformMix(C, Seed, true).Lines
                                       : makeServeHotSet(C, Seed, true).Lines;
    };
    bool Repeats = Make(O.Seed) == Make(O.Seed);
    bool Varies = Make(O.Seed) != Make(O.Seed + 1);
    std::printf("selftest %-14s counters-repeat=%s gate=%s corpus-repeats=%s "
                "seed-varies=%s (%zu counters)\n",
                W, Same ? "ok" : "FAIL", Clean ? "ok" : "FAIL",
                Repeats ? "ok" : "FAIL", Varies ? "ok" : "FAIL",
                A.Counters.size());
    if (!Same)
      for (const auto &[K, V] : A.Counters)
        if (B.Counters[K] != V)
          std::printf("  %s: %llu vs %llu\n", K.c_str(),
                      static_cast<unsigned long long>(V),
                      static_cast<unsigned long long>(B.Counters[K]));
    for (const std::string &P : A.G.Problems)
      std::printf("  FAILED: %s\n", P.c_str());
    Bad += !(Same && Clean && Repeats && Varies);
  }
  std::printf("selftest %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

int main(int Argc, char **Argv) {
  Options O;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--corpus")
      O.CorpusDir = Next();
    else if (A == "--serve-binary")
      O.ServeBinary = Next();
    else if (A == "--workdir")
      O.WorkDir = Next();
    else if (A == "--commit")
      O.Commit = Next();
    else if (A == "--selftest")
      SelfTest = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.CorpusDir.empty() || O.ServeBinary.empty() || O.WorkDir.empty())
    usage("--corpus, --serve-binary and --workdir are required");
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.Commit.empty())
    O.Commit = "unknown";
  if (SelfTest)
    return selfTest(O);
  if (O.Workload.empty())
    usage("--workload is required");

  std::vector<std::string> Names;
  if (O.Workload == "all")
    Names = {"search-mix", "transform-mix", "serve-front"};
  else
    Names = {O.Workload};

  uint64_t Attempted = 0, Failed = 0;
  json::JsonWriter W;
  W.beginObject();
  W.key("metrics").beginObject();
  for (const std::string &N : Names) {
    Report R = runWorkload(O, N);
    printReport(O, R);
    Attempted += R.G.Attempted;
    Failed += R.G.Failed;
    for (const auto &[M, VU] : O.Trace ? R.Layer : R.EndToEnd) {
      W.key(Names.size() > 1 ? N + "/" + M : M).beginObject();
      W.field("value", VU.first);
      W.field("unit", VU.second);
      W.endObject();
    }
  }
  W.endObject();
  W.endObject();
  // The contract's key order: correct, attempted, failed, metrics.
  std::string Metrics = W.take();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s\n",
              Failed ? "false" : "true",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Metrics.substr(1).c_str());
  std::fflush(stdout);
  return Failed || !Attempted ? 1 : 0;
}
