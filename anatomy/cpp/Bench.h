//===- anatomy/cpp/Bench.h - Request-anatomy benchmark internals ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the request-anatomy benchmark (README.md next
/// to this directory): seeded workload generation, the correctness gate,
/// the metric report, and the three workload runners. Everything here
/// calls the program only through its public entry points
/// (api::Pipeline, engine::processRequest / BatchEngine, serve::Server,
/// front::Front); spans are taken around those calls, never inside them.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_ANATOMY_BENCH_H
#define IRLT_ANATOMY_BENCH_H

#include "fuzz/Rng.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace irlt::json {
class JsonWriter;
}
namespace irlt::front {
class Front;
}

namespace anatomy {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Command-line configuration.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny corpora and short windows (the self-test).
  bool Tiny = false;
  std::string CorpusDir;
  std::string ServeBinary;
  /// Scratch directory for sockets and native programs (relative paths
  /// keep Unix socket names short).
  std::string WorkDir;
  std::string Commit;
};

/// Fisher-Yates shuffle of \p V driven by \p R.
template <typename T> void shuffle(std::vector<T> &V, irlt::fuzz::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

//===--- Corpus ------------------------------------------------------------

/// One versioned corpus nest (corpus/<Name>.nest) with its scripts
/// (corpus/<Name>[.<tag>].script).
struct CorpusNest {
  std::string Name;
  std::string Source;
  std::vector<std::string> Scripts;
};

/// Loads every corpus nest, sorted by name; exits on a missing corpus.
std::vector<CorpusNest> loadCorpus(const std::string &Dir);

/// A generated workload: request lines in the order they are sent. Lines that are
/// exact repeats are byte-identical (same id), so their result records
/// must be too.
struct Workload {
  std::string Name;
  std::vector<std::string> Lines;
  /// Parallel to Lines: the request class ("auto_locality", "auto_both",
  /// "auto_par", "script").
  std::vector<std::string> Kinds;
  /// Parallel to Lines: the cost class; a pass sends higher classes
  /// first (empty: one class).
  std::vector<int> Cost;
  /// Distinct lines, first-occurrence order.
  std::vector<std::string> distinct() const;
  /// The order one pass sends Lines in (indices into Lines): shuffled by
  /// \p R, then stably sorted by descending cost class.
  std::vector<size_t> passOrder(irlt::fuzz::Rng &R) const;
};

Workload makeSearchMix(const std::vector<CorpusNest> &C, uint64_t Seed,
                       bool Tiny);
Workload makeTransformMix(const std::vector<CorpusNest> &C, uint64_t Seed,
                          bool Tiny);
/// The serve-front hot set (each request once; the generator draws from
/// it with Zipf weights).
Workload makeServeHotSet(const std::vector<CorpusNest> &C, uint64_t Seed,
                         bool Tiny);

/// A corpus nest whose locality-search winner the native speedup check
/// compiles. The corpus part is fixed, so the metric is comparable across
/// seeds and across workloads.
struct NativePair {
  std::string Name;
  std::string NestSource;
};
std::vector<NativePair> nativePairs(const std::vector<CorpusNest> &C,
                                    bool Tiny);

//===--- Statistics and report ---------------------------------------------

double median(std::vector<double> V);
double mean(const std::vector<double> &V);
/// The mean of \p V without its lowest and highest tenth: it drops a rare
/// stall, and it moves smoothly with the share of slow samples where a
/// median jumps - a shared host may run the same work at one of a few
/// speeds and flip between them within tens of milliseconds.
double trimmedMean(std::vector<double> V);
/// The highest percentile (in whole tenths) with at least ten samples
/// beyond it, and its value; {0, 0} when fewer than 11 samples.
struct Tail {
  double Percentile = 0;
  double Value = 0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);
double quantile(std::vector<double> V, double Q);

/// Peak resident set (VmHWM) of \p Pid (0 = self) in MiB.
double peakRssMb(int Pid = 0);

/// Correctness-gate bookkeeping: every attempted request, and every
/// failure with a one-line reason (printed, capped).
struct Gate {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  void fail(const std::string &Why);
  /// Checks one result record against the reference stream and the
  /// transport/admission error taxonomy.
  void check(const std::string &Line, const std::string &Record,
             const std::unordered_map<std::string, std::string> &Ref);
};

/// One workload's results: end-to-end metrics, per-layer metrics, work
/// counters and free-form notes.
struct Report {
  std::string Workload;
  std::map<std::string, std::pair<double, std::string>> EndToEnd;
  std::map<std::string, std::pair<double, std::string>> Layer;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::string> Notes;
  Gate G;

  void e2e(const std::string &N, double V, const std::string &Unit) {
    EndToEnd[N] = {V, Unit};
  }
  void layer(const std::string &N, double V, const std::string &Unit) {
    Layer[N] = {V, Unit};
  }
};

/// Writes the provenance stamp every output record carries: host, nproc,
/// compiler, build type, commit and seed.
void writeStamp(irlt::json::JsonWriter &W, const Options &O);

/// Prints the report lines and JSON records of \p R.
void printReport(const Options &O, const Report &R);

//===--- Reference stream --------------------------------------------------

/// Result records of \p Lines computed with caches off and one caller,
/// keyed by line. \p ToolName is the record prologue's "tool".
std::unordered_map<std::string, std::string>
referenceStream(const std::vector<std::string> &Lines,
                const std::string &ToolName);

/// True for error kinds that are transport/admission failures (a
/// benchmark failure), as opposed to results such as an illegal verdict.
bool isTransportError(const std::string &Kind);

//===--- Workload runners ----------------------------------------------------

/// A started 2-shard front::Front (one job per shard) with its run()
/// thread; stop() drains it and joins.
struct RunningFront {
  std::unique_ptr<irlt::front::Front> F;
  std::thread Runner;
  std::string Sock;

  RunningFront() = default;
  RunningFront(const RunningFront &) = delete;
  RunningFront &operator=(const RunningFront &) = delete;
  ~RunningFront();
  void stop();
};

/// Starts a front on socket <WorkDir>/f<pid>-<Index>.sock; null (with a
/// message) when it cannot start.
std::unique_ptr<RunningFront> startFront(const Options &O, unsigned Index);

void runSearchMix(const Options &O, Report &R);
void runTransformMix(const Options &O, Report &R);
void runServeFront(const Options &O, Report &R);

/// Native speedup of each pair's locality-search winner (beam 2, depth 1),
/// as the geomean of original/transformed kernel time, with checksum and
/// concrete-execution agreement gated in \p R. Fills winner_speedup and
/// the cgen.* layer metrics.
void runNative(const Options &O, const std::vector<NativePair> &Pairs,
               Report &R);

/// Concrete-execution check (Pipeline::verify) of a seeded sample of
/// legal script verdicts among \p Lines.
void verifySample(const std::vector<std::string> &Lines, uint64_t Seed,
                  unsigned SampleSize, Report &R);

//===--- Traced attribution ------------------------------------------------

/// Replays \p Sample sequentially through mirrored cold pipelines - once
/// through processRequest, once call by call through api::Pipeline with
/// spans, once over a Unix socket to an in-process serve::Server and once
/// through a fresh 2-shard front::Front - and fills every per-layer metric
/// and the deterministic work counters. A layer the sample's traffic never
/// reaches is timed by a probe call on the sample's own nests.
void attribute(const Options &O, const std::vector<std::string> &Sample,
               Report &R);

/// Runs the self-test: every workload at tiny size twice, asserting
/// identical counters, and a second seed yielding a different corpus.
int selfTest(const Options &O);

} // namespace anatomy

#endif // IRLT_ANATOMY_BENCH_H
