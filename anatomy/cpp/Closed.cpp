//===- anatomy/cpp/Closed.cpp - The closed-loop workloads ----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// search-mix (two closed-loop callers on one shared api::Pipeline through
/// engine::processRequest) and transform-mix (engine::BatchEngine with two
/// jobs). Both replay whole passes of their corpus until the measuring
/// window is used up; every pass starts cold - a fresh Pipeline or engine
/// and a cleared process-wide prefix cache - so all passes do identical
/// work and a cross-request cache shows as a faster pass, not a drift.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Pipeline.h"
#include "engine/Engine.h"
#include "legality/IncrementalEngine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>

using namespace irlt;

namespace anatomy {

namespace {

constexpr unsigned Callers = 2;
/// The shortest batch of back-to-back set-ups SetupClock times.
constexpr double SetupBatchSeconds = 0.2;

/// The benchmark's set-up time: the median over batches of the mean wall
/// time of one set-up, each batch running the set-up back to back for at
/// least SetupBatchSeconds. One set-up takes tens of microseconds, far
/// shorter than the spells in which a shared host runs at one of its
/// speeds, so one timed set-up lands in a single spell where a batch
/// averages over several. The batches are spread across the whole run -
/// one before the measuring window, then one between passes at most every
/// two seconds - and the first follows at least 50 ms of unmeasured runs:
/// the process has just started and its first milliseconds of work run
/// slower than the rest.
class SetupClock {
public:
  explicit SetupClock(std::function<void()> Fn) : Fn(std::move(Fn)) {
    for (Clock::time_point W0 = Clock::now();
         secondsBetween(W0, Clock::now()) < 0.05;)
      this->Fn();
    batch();
  }
  /// Times another batch when two seconds have passed since the last one.
  void betweenPasses() {
    if (secondsBetween(Last, Clock::now()) >= 2.0)
      batch();
  }
  double seconds() const { return median(Samples); }

private:
  void batch() {
    Clock::time_point T0 = Clock::now();
    unsigned Reps = 0;
    do {
      Fn();
      ++Reps;
      Last = Clock::now();
    } while (secondsBetween(T0, Last) < SetupBatchSeconds);
    Samples.push_back(secondsBetween(T0, Last) / Reps);
  }

  std::function<void()> Fn;
  std::vector<double> Samples;
  Clock::time_point Last;
};

/// One request-level span (the traced run keeps them in memory).
struct Span {
  uint64_t Request;
  unsigned Caller;
  Clock::time_point Start, End;
};

struct ClosedRun {
  double Seconds = 0;
  std::vector<double> PassSeconds;
  double BusySeconds = 0;
  unsigned Passes = 0;
  /// Per distinct request: the trimmed mean latency over all its sends.
  std::vector<double> RequestMs;
  /// Caller delay between one response and its next call.
  std::vector<double> GapMs;
  std::vector<Span> Spans;
};

/// Whole passes of \p W by Callers closed-loop callers sharing one fresh
/// Pipeline per pass, until \p Seconds have been measured. Each pass
/// sends the lines in a new seeded order (Workload::passOrder), so which
/// requests overlap - and contend - averages out over the passes instead
/// of being fixed by the seed.
ClosedRun closedLoop(const Workload &W, uint64_t Seed, double Seconds,
                     bool Traced, Gate &G,
                     const std::unordered_map<std::string, std::string> &Ref,
                     SetupClock *Setup) {
  ClosedRun Run;
  engine::EngineOptions EO;
  const std::vector<std::string> &Lines = W.Lines;
  fuzz::Rng OrderRng(fuzz::mix64(Seed ^ 0x0bde5ull));
  std::unordered_map<std::string, std::vector<double>> ByRequest;
  do {
    std::vector<size_t> Order = W.passOrder(OrderRng);
    legality::IncrementalEngine::global().clear();
    api::Pipeline P;
    std::vector<std::string> Records(Lines.size());
    std::vector<double> Lat(Lines.size()), Gap(Lines.size());
    std::vector<Span> Spans(Traced ? Lines.size() : 0);
    std::atomic<size_t> Next{0};
    std::atomic<uint64_t> BusyNs{0};
    auto Caller = [&](unsigned Id) {
      engine::StageSampler S;
      Clock::time_point Prev = Clock::now();
      uint64_t Busy = 0;
      for (size_t K; (K = Next.fetch_add(1)) < Order.size();) {
        size_t I = Order[K];
        Clock::time_point T0 = Clock::now();
        engine::RequestOutcome Out =
            engine::processRequest(P, EO, Lines[I], I + 1, S);
        Clock::time_point T1 = Clock::now();
        Records[I] = std::move(Out.Record);
        Lat[I] = usBetween(T0, T1) / 1000.0;
        Gap[K] = usBetween(Prev, T0) / 1000.0;
        Busy += static_cast<uint64_t>(usBetween(T0, T1) * 1000.0);
        if (Traced)
          Spans[I] = {I, Id, T0, T1};
        Prev = T1;
      }
      BusyNs += Busy;
    };
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Callers; ++C)
      Threads.emplace_back(Caller, C);
    for (std::thread &T : Threads)
      T.join();
    Run.PassSeconds.push_back(secondsBetween(T0, Clock::now()));
    Run.Seconds += Run.PassSeconds.back();
    Run.BusySeconds += static_cast<double>(BusyNs.load()) * 1e-9;
    ++Run.Passes;
    for (size_t I = 0; I < Lines.size(); ++I) {
      G.check(Lines[I], Records[I], Ref);
      ByRequest[Lines[I]].push_back(Lat[I]);
    }
    Run.GapMs.insert(Run.GapMs.end(), Gap.begin(), Gap.end());
    Run.Spans.insert(Run.Spans.end(), Spans.begin(), Spans.end());
    if (Setup)
      Setup->betweenPasses();
  } while (Run.Seconds < Seconds);
  for (const std::string &L : W.distinct())
    Run.RequestMs.push_back(trimmedMean(ByRequest[L]));
  return Run;
}

void kindCounters(const Workload &W, Report &R) {
  for (const char *K : {"auto_locality", "auto_both", "auto_par", "script"})
    R.Counters[std::string("work.requests.") + K] = 0;
  for (const std::string &K : W.Kinds)
    ++R.Counters["work.requests." + K];
  R.Counters["work.requests"] = W.Lines.size();
}

std::string pct(const Tail &T) {
  return "p" + std::to_string(T.Percentile).substr(0, 4) + " of " +
         std::to_string(T.Samples) + " samples";
}

/// The attribution sample: every distinct request that carries a validate
/// flag (so the validate/analyze/emit layers are timed on search traffic),
/// the first request of each class in sending order - the workload sends
/// its most expensive searches first, so these carry the time the workload
/// spends - and a seeded sample of \p N others.
std::vector<std::string> sampleDistinct(const Workload &W, uint64_t Seed,
                                        size_t N) {
  std::vector<std::string> Sample, Rest;
  std::set<std::string> Classes;
  for (size_t I = 0; I < W.Lines.size(); ++I) {
    const std::string &L = W.Lines[I];
    if (std::find(Sample.begin(), Sample.end(), L) != Sample.end())
      continue;
    if (L.find("\"validate\"") != std::string::npos ||
        Classes.insert(W.Kinds[I]).second)
      Sample.push_back(L);
  }
  for (const std::string &L : W.distinct())
    if (std::find(Sample.begin(), Sample.end(), L) == Sample.end())
      Rest.push_back(L);
  fuzz::Rng R(fuzz::mix64(Seed ^ 0xa77b0ull));
  shuffle(Rest, R);
  if (Rest.size() > N)
    Rest.resize(N);
  Sample.insert(Sample.end(), Rest.begin(), Rest.end());
  return Sample;
}

} // namespace

void runSearchMix(const Options &O, Report &R) {
  std::vector<CorpusNest> C = loadCorpus(O.CorpusDir);
  Workload W;
  SetupClock Setup([&] {
    W = makeSearchMix(C, O.Seed, O.Tiny);
    api::Pipeline P;
  });
  kindCounters(W, R);
  auto Ref = referenceStream(W.distinct(), "irlt-batch");

  double Window = O.Trace ? O.Seconds / 2 : O.Seconds;
  ClosedRun Run = closedLoop(W, O.Seed, Window, false, R.G, Ref, &Setup);
  R.e2e("setup_s", Setup.seconds(), "s");
  // Requests per second over the trimmed mean pass, as on transform-mix.
  double Tput =
      static_cast<double>(W.Lines.size()) / trimmedMean(Run.PassSeconds);
  // Latency quantiles are taken over the distinct requests, each at the
  // trimmed mean of its sends: every distinct request is sent equally
  // often, so this is the quantile of the sends without the noise of a
  // single send, which lands on whatever speed the host runs at then.
  Tail T = tailOf(Run.RequestMs);
  R.e2e("throughput_rps", Tput, "1/s");
  R.e2e("max_rps", Tput, "1/s");
  R.e2e("latency_p50_ms", median(Run.RequestMs), "ms");
  R.e2e("latency_tail_ms", T.Value, "ms");
  std::string Sends = std::to_string(2 * Run.Passes) + " sends";
  R.Notes["latency_p50"] = "median over " +
                           std::to_string(Run.RequestMs.size()) +
                           " distinct requests of each one's trimmed mean "
                           "over " +
                           Sends;
  R.Notes["latency_tail"] = pct(T) +
                            " (distinct requests, each at its trimmed mean "
                            "over " +
                            Sends + ")";
  R.Notes["passes"] = std::to_string(Run.Passes) + " x " +
                      std::to_string(W.Lines.size()) + " requests, " +
                      std::to_string(Callers) +
                      " closed-loop callers, a new order each pass";

  runNative(O, nativePairs(C, O.Tiny), R);

  if (O.Trace) {
    ClosedRun TR = closedLoop(W, O.Seed, Window, true, R.G, Ref, nullptr);
    double TTput =
        static_cast<double>(W.Lines.size()) / trimmedMean(TR.PassSeconds);
    R.layer("trace.overhead_frac", (Tput - TTput) / Tput, "ratio");
    R.layer("engine.worker_utilization",
            Run.BusySeconds / (Run.Seconds * Callers), "ratio");
    R.layer("loadgen.late_p99_ms", quantile(Run.GapMs, 0.99), "ms");
    R.layer("loadgen.backlog", 0, "count");
    R.Notes["spans"] = std::to_string(TR.Spans.size()) + " request spans";
    attribute(O, sampleDistinct(W, O.Seed, O.Tiny ? 1 : 3), R);
  }
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
}

void runTransformMix(const Options &O, Report &R) {
  std::vector<CorpusNest> C = loadCorpus(O.CorpusDir);
  Workload W;
  SetupClock Setup([&] {
    W = makeTransformMix(C, O.Seed, O.Tiny);
    engine::EngineOptions EO;
    EO.Jobs = Callers;
    engine::BatchEngine E(EO);
  });
  kindCounters(W, R);
  auto Ref = referenceStream(W.distinct(), "irlt-batch");

  struct Passes {
    double Seconds = 0;
    std::vector<double> P50Ms, P95Ms, Util, PassSeconds;
    /// The benchmark's own delay before each pass (engine construction,
    /// prefix-cache reset): the closed loop's generator lateness.
    std::vector<double> PrepMs;
  };
  auto Run = [&](double Window, SetupClock *Between) {
    Passes Out;
    do {
      Clock::time_point TP = Clock::now();
      legality::IncrementalEngine::global().clear();
      engine::EngineOptions EO;
      EO.Jobs = Callers;
      engine::BatchEngine E(EO);
      std::vector<std::string> Records;
      Records.reserve(W.Lines.size());
      Clock::time_point T0 = Clock::now();
      Out.PrepMs.push_back(usBetween(TP, T0) / 1000.0);
      engine::EngineMetrics M = E.run(
          W.Lines, [&](const std::string &Rec) { Records.push_back(Rec); });
      Out.PassSeconds.push_back(secondsBetween(T0, Clock::now()));
      Out.Seconds += Out.PassSeconds.back();
      const engine::StageMetrics &Tot =
          M.Stages[static_cast<unsigned>(engine::Stage::Total)];
      Out.P50Ms.push_back(static_cast<double>(Tot.P50Ns) * 1e-6);
      Out.P95Ms.push_back(static_cast<double>(Tot.P95Ns) * 1e-6);
      Out.Util.push_back(M.workerUtilization());
      for (size_t I = 0; I < W.Lines.size(); ++I)
        R.G.check(W.Lines[I], I < Records.size() ? Records[I] : "", Ref);
      if (Between)
        Between->betweenPasses();
    } while (Out.Seconds < Window);
    return Out;
  };
  // Requests per second over the trimmed mean pass: a pass lasts a tenth
  // of a second, so a stall of the host moves a few passes, which the
  // trim drops, and the host's speed flips average out.
  auto Rate = [&](const Passes &P) {
    return static_cast<double>(W.Lines.size()) / trimmedMean(P.PassSeconds);
  };

  // Unmeasured passes first: the first passes of a process run at half
  // speed while the engines' worker threads grow their heaps.
  Run(O.Tiny ? 0.0 : 0.5, nullptr);
  double Window = O.Trace ? O.Seconds / 2 : O.Seconds;
  Passes U = Run(Window, &Setup);
  R.e2e("setup_s", Setup.seconds(), "s");
  double Tput = Rate(U);
  R.e2e("throughput_rps", Tput, "1/s");
  R.e2e("max_rps", Tput, "1/s");
  R.e2e("latency_p50_ms", trimmedMean(U.P50Ms), "ms");
  R.e2e("latency_tail_ms", trimmedMean(U.P95Ms), "ms");
  R.Notes["latency_tail"] =
      "p95 of each pass's " + std::to_string(W.Lines.size()) +
      " engine-timed requests, trimmed mean over " +
      std::to_string(U.P95Ms.size()) + " passes";
  R.Notes["passes"] = std::to_string(U.P50Ms.size()) + " x " +
                      std::to_string(W.Lines.size()) +
                      " requests, BatchEngine jobs=2, cold caches";

  verifySample(W.distinct(), O.Seed, O.Tiny ? 2 : 8, R);
  runNative(O, nativePairs(C, O.Tiny), R);

  if (O.Trace) {
    // The traced pass is the same engine run with a span around each
    // BatchEngine::run call; the engine's own utilization rides along.
    Passes T = Run(Window, nullptr);
    double TTput = Rate(T);
    R.layer("trace.overhead_frac", (Tput - TTput) / Tput, "ratio");
    R.layer("engine.worker_utilization", median(U.Util), "ratio");
    R.layer("loadgen.late_p99_ms", quantile(U.PrepMs, 0.99), "ms");
    R.layer("loadgen.backlog", 0, "count");
    std::vector<std::string> Sample(
        W.Lines.begin(),
        W.Lines.begin() + std::min<size_t>(W.Lines.size(), O.Tiny ? 8 : 80));
    attribute(O, Sample, R);
  }
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace anatomy
