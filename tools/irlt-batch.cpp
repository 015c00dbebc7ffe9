//===- tools/irlt-batch.cpp - Batch pipeline driver -----------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-batch: the high-throughput front of the framework (docs/API.md).
/// Reads a stream of ndjson requests (engine/Wire.h) - one JSON object
/// per line, each a complete irlt-opt-style job: a nest plus either a
/// transformation script or an --auto search spec - executes them on a
/// worker pool sharing the facade's dependence and legality caches, and
/// writes one versioned JSON result record per request to stdout, in
/// input order, byte-identical for any --jobs value.
///
///   irlt-batch [FILE] [options]        (FILE defaults to stdin)
///     --jobs N            worker threads (default 1)
///     --no-cache          disable the shared memoization caches
///     --cache-cap N       bound each cache to N entries (LRU eviction;
///                         a memory knob, never a correctness one)
///     --max-line-bytes N  per-request line bound (default 1 MiB);
///                         longer lines degrade to a structured
///                         "oversized_line" error record
///     --validate[=N]      force bounded concrete-execution validation of
///                         every request (N = instance budget, default
///                         200000); --validate=native adds the
///                         compile-and-run tier (docs/CODEGEN.md) with
///                         the raised interpreter budget
///     --fault SPEC        deterministic fault injection (docs/SERVE.md;
///                         also via the IRLT_FAULT environment variable)
///     --stats             print the engine metrics record (cache hit
///                         rates, p50/p95 per-stage latency, worker
///                         utilization) to stderr after the run
///
/// SIGINT/SIGTERM interrupt cooperatively: workers finish their in-flight
/// request, the emitted stream is a clean completed prefix in input
/// order, a final {"record": "interrupted"} marker line distinguishes it
/// from a complete run, and the exit status is 3.
///
/// Exit status: 0 when every request was served successfully, 2 when any
/// request failed (its record carries "ok": false) or any script-mode
/// legality test rejected, 3 when interrupted by a signal, 1 on
/// tool/usage errors.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "support/Bindings.h"
#include "support/FileIO.h"
#include "support/Json.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace irlt;

namespace {

/// Set by the SIGINT/SIGTERM handler; the engine polls it between
/// requests (cooperative interruption, never a torn record).
std::atomic<bool> GStop{false};

void onSignal(int) { GStop.store(true); }

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [FILE] [--jobs N] [--no-cache] [--cache-cap N]"
               " [--max-line-bytes N] [--validate[=N|native]] [--fault SPEC]"
               " [--stats]\n"
               "reads ndjson requests (FILE or stdin), writes one JSON "
               "record per request\n"
               "exit status: 0 all served, 2 request errors or illegal "
               "sequences, 3 interrupted, 1 tool error\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  std::string InputPath;
  engine::EngineOptions Opts;
  bool Stats = false;

  std::string FaultErr;
  Opts.Faults = faultsFromEnv(&FaultErr);
  if (!FaultErr.empty()) {
    std::fprintf(stderr, "error: IRLT_FAULT: %s\n", FaultErr.c_str());
    return 1;
  }

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--jobs") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --jobs needs an argument\n");
        return 1;
      }
      uint64_t J = 0;
      if (!parseU64(argv[++I], J) || !J || J > 1024) {
        std::fprintf(stderr, "error: --jobs expects 1..1024\n");
        return 1;
      }
      Opts.Jobs = static_cast<unsigned>(J);
    } else if (A == "--no-cache") {
      Opts.EnableCache = false;
    } else if (A == "--cache-cap") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --cache-cap needs an argument\n");
        return 1;
      }
      uint64_t N = 0;
      if (!parseU64(argv[++I], N) || !N) {
        std::fprintf(stderr, "error: --cache-cap expects a positive entry "
                             "count\n");
        return 1;
      }
      Opts.CacheCapacity = static_cast<size_t>(N);
    } else if (A == "--max-line-bytes") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --max-line-bytes needs an argument\n");
        return 1;
      }
      uint64_t N = 0;
      if (!parseU64(argv[++I], N) || !N) {
        std::fprintf(stderr,
                     "error: --max-line-bytes expects a positive byte "
                     "count\n");
        return 1;
      }
      Opts.MaxLineBytes = static_cast<size_t>(N);
    } else if (A == "--fault") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --fault needs an argument\n");
        return 1;
      }
      ErrorOr<FaultConfig> FC = parseFaultSpec(argv[++I]);
      if (!FC) {
        std::fprintf(stderr, "error: --fault: %s\n", FC.message().c_str());
        return 1;
      }
      Opts.Faults = *FC;
    } else if (A == "--validate" || A.rfind("--validate=", 0) == 0) {
      Opts.ForcedValidateBudget = 200'000;
      if (A.size() > 10 && A[10] == '=') {
        std::string Arg = A.substr(11);
        if (Arg == "native") {
          Opts.ForcedValidateBudget = 0;
          Opts.ForcedValidateNative = true;
        } else {
          uint64_t B = 0;
          if (!parseU64(Arg, B) || !B) {
            std::fprintf(stderr, "error: --validate= expects a positive "
                                 "instance budget or 'native'\n");
            return 1;
          }
          Opts.ForcedValidateBudget = B;
        }
      }
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage(argv[0]);
      return 1;
    } else if (InputPath.empty()) {
      InputPath = A;
    } else {
      std::fprintf(stderr, "error: more than one input file\n");
      return 1;
    }
  }

  std::string Input;
  if (InputPath.empty()) {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Input = SS.str();
  } else if (!readFile(InputPath, Input)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", InputPath.c_str());
    return 1;
  }

  Opts.StopFlag = &GStop;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  engine::BatchEngine E(Opts);
  engine::EngineMetrics M =
      E.run(engine::splitLines(Input), [](const std::string &Record) {
        std::fwrite(Record.data(), 1, Record.size(), stdout);
        std::fputc('\n', stdout);
      });

  if (M.Interrupted) {
    // A partial stream must never be mistaken for a complete run: the
    // marker carries how far the clean prefix got.
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-batch");
    W.field("record", "interrupted");
    W.field("served", M.Served);
    W.field("requests", M.Requests);
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
  }
  std::fflush(stdout);

  if (Stats)
    std::fprintf(stderr, "%s\n", M.toJson().c_str());

  if (M.Interrupted)
    return 3;
  return M.Errors || M.Illegal ? 2 : 0;
}
