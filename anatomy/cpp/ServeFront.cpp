//===- anatomy/cpp/ServeFront.cpp - The open-loop serve-front workload ---===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-front: one generator process offers Zipf-distributed requests
/// from a small warm hot set to a 2-shard front::Front (one job per
/// shard) at scheduled times, over one connection with one sender and one
/// receiver thread, so the generator takes as little CPU from the system
/// under test as it can. Latency is timed from each request's due time,
/// so a stall also charges the requests queued behind it.
///
/// Every figure is a median over short windows (WindowSeconds) of one
/// step: on a shared host a scheduling stall of a few milliseconds lands
/// in one window and moves that window only. Rates come from one fixed
/// ladder, 500 * 2^(k/4) requests per second, walked coarse-to-fine.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "front/Front.h"
#include "fuzz/Rng.h"
#include "serve/Client.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

using namespace irlt;

namespace anatomy {

namespace {

/// The workload's latency limit on latency_tail_ms for a ladder step.
constexpr double LatencyLimitMs = 5.0;
/// A step stops offering load early once its backlog holds this much of
/// its own offered load (seconds' worth): the backlog is growing without
/// bound. The front's windows and the workers' admission queues are sized
/// above it for every ladder rate, so the ladder never sheds.
constexpr double AbortBacklogSeconds = 0.1;
constexpr size_t FrontQueue = 8192;
/// Generator lateness (p99) past which a step's figures are invalid; an
/// invalid step is run again, up to Attempts times.
constexpr double LateLimitMs = 2.0;
constexpr unsigned Attempts = 3;
constexpr double LadderBase = 500.0;
/// The fixed rate at which latency_p50_ms and latency_tail_ms are
/// reported: busy enough that the system's threads rarely sleep between
/// requests (waking an idle virtual CPU costs a variable fraction of a
/// millisecond), well below saturation.
constexpr double ReferenceRate = 4000.0;
/// Outstanding requests in the saturation run (below FrontQueue).
constexpr unsigned SaturationWindow = 64;
constexpr double WindowSeconds = 0.1;
constexpr uint64_t RecvTimeoutMs = 20000;

} // namespace

RunningFront::~RunningFront() { stop(); }

void RunningFront::stop() {
  if (!F)
    return;
  F->requestDrain();
  if (Runner.joinable())
    Runner.join();
  F.reset();
}

std::unique_ptr<RunningFront> startFront(const Options &O, unsigned Index) {
  auto RF = std::make_unique<RunningFront>();
  RF->Sock = O.WorkDir + "/f" + std::to_string(getpid()) + "-" +
             std::to_string(Index) + ".sock";
  front::FrontOptions FO;
  FO.SocketPath = RF->Sock;
  FO.Shards = 2;
  FO.WorkerJobs = 1;
  FO.ServeBinary = O.ServeBinary;
  FO.QueueCapacity = FrontQueue;
  FO.WindowCapacity = FrontQueue;
  RF->F = std::make_unique<front::Front>(FO);
  ErrorOr<bool> S = RF->F->start();
  if (!S) {
    std::fprintf(stderr, "anatomy: front failed to start: %s\n",
                 S.message().c_str());
    RF->F.reset();
    return nullptr;
  }
  front::Front *FP = RF->F.get();
  RF->Runner = std::thread([FP] { FP->run(); });
  return RF;
}

namespace {

/// Waits for \p Due. When requests are more than SpinGap apart, sleeps
/// until shortly before it and yields until it: waking from an idle CPU
/// can take a millisecond, which would make the generator itself late at
/// low rates. At higher rates the sender is never idle for long and a
/// plain sleep keeps it from taking the CPU its receiver shares.
void sleepUntil(Clock::time_point Due, double Rate) {
  constexpr auto Spin = std::chrono::microseconds(100);
  constexpr double SpinGapSeconds = 150e-6;
  if (1.0 / Rate < SpinGapSeconds) {
    std::this_thread::sleep_until(Due);
    return;
  }
  if (Due - Clock::now() > Spin)
    std::this_thread::sleep_until(Due - Spin);
  while (Clock::now() < Due)
    std::this_thread::yield();
}

/// CPU placement during the load phase, on hosts with at least four CPUs:
/// shard i on CPU i, the front (this process) on CPU 2, the generator's
/// threads on CPU 3. Left to the scheduler, the two busy shard workers
/// sometimes share one CPU for a whole run, which halves the saturation
/// throughput of that run.
constexpr unsigned PinnedCpus = 4;

bool pinning() {
  return std::thread::hardware_concurrency() >= PinnedCpus;
}

/// Sets the affinity of every thread of \p Pid to \p Cpu, or to all CPUs
/// when \p Cpu is negative.
void pinProcess(pid_t Pid, int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (unsigned C = 0; C < std::thread::hardware_concurrency(); ++C)
    if (Cpu < 0 || static_cast<int>(C) == Cpu)
      CPU_SET(C, &Set);
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(Pid) + "/task", EC))
    sched_setaffinity(std::stoi(E.path().filename().string()), sizeof(Set),
                      &Set);
}

void pinGeneratorThread() {
  if (!pinning())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(PinnedCpus - 1, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

double ladderRate(int K) { return LadderBase * std::pow(2.0, K / 4.0); }

/// Sends every line once (pipelined) and checks each response.
bool warm(const std::string &Sock, const std::vector<std::string> &Lines,
          const std::unordered_map<std::string, std::string> &Ref, Gate &G) {
  ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
  if (!C)
    return false;
  for (const std::string &L : Lines)
    if (!C->sendFrame(L))
      return false;
  for (const std::string &L : Lines) {
    ErrorOr<std::string> Resp = C->recvFrame(RecvTimeoutMs);
    G.check(L, Resp ? *Resp : std::string(), Ref);
    if (!Resp)
      return false;
  }
  return true;
}

/// One step's figures, each the median over its windows.
struct StepResult {
  double Rate = 0; ///< offered rate; 0 for the saturation run
  uint64_t Sent = 0;
  uint64_t BacklogEnd = 0;
  bool Aborted = false;
  bool Broken = false; ///< the connection failed
  double LateP99Ms = 0;
  double P50Ms = 0;
  Tail T; ///< the median window's tail shape; Value is the median tail
  double Throughput = 0;
  unsigned Windows = 0;

  bool valid() const { return LateP99Ms <= LateLimitMs; }
  bool passes() const {
    return !Aborted && !Broken && valid() && T.Value <= LatencyLimitMs;
  }
};

/// One request of a step. The sender fills slot k before publishing
/// Sent = k + 1; the receiver only touches slots below Sent.
struct Slot {
  Clock::time_point Due;
  Clock::time_point Done;
  uint32_t Choice = 0;
};

using SpanLog = std::vector<std::pair<Clock::time_point, Clock::time_point>>;

/// Offers load for \p Seconds: at \p Rate requests per second (open
/// loop), or with SaturationWindow requests outstanding when \p Rate is 0
/// (closed loop, the saturation throughput). With \p Spans set, every
/// request's (due, completed) span is kept - the traced variant.
StepResult runStep(const std::string &Sock,
                   const std::vector<std::string> &Hot,
                   const std::vector<double> &CumW, uint64_t Seed,
                   double Rate, double Seconds, Gate &G,
                   const std::unordered_map<std::string, std::string> &Ref,
                   SpanLog *Spans = nullptr) {
  StepResult SR;
  SR.Rate = Rate;
  ErrorOr<serve::ClientConn> ConnOr = serve::connectUnix(Sock);
  if (!ConnOr) {
    SR.Broken = true;
    return SR;
  }
  serve::ClientConn Conn = ConnOr.take();
  // The saturation run stops early past 200k requests per second.
  size_t Cap =
      static_cast<size_t>((Rate > 0 ? Rate : 200'000.0) * Seconds) + 16;
  std::vector<Slot> Slots(Cap);
  std::vector<double> LateMs;
  // Responses are checked as they arrive and not kept: storing them would
  // make the generator's own allocations part of what the step measures.
  std::vector<uint8_t> Mismatch(Cap, 0);
  std::atomic<uint64_t> Sent{0}, Recvd{0};
  bool DoneSending = false;
  std::atomic<bool> Broken{false};
  std::mutex Mu;
  std::condition_variable Cv;
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));

  std::thread Sender([&] {
    pinGeneratorThread();
    fuzz::Rng R(fuzz::mix64(Seed ^ static_cast<uint64_t>(Rate)));
    uint64_t Burst = 0;
    for (uint64_t K = 0; K < Cap; ++K) {
      Clock::time_point Due;
      if (Rate > 0) {
        Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(K / Rate));
        if (Due >= End)
          break;
        sleepUntil(Due, Rate);
        if (static_cast<double>(K - Recvd.load()) >
            std::max(1000.0, Rate * AbortBacklogSeconds)) {
          SR.Aborted = true;
          break;
        }
      } else {
        // Refill in bursts of half the window: per-response refills make
        // every request its own chain of thread wake-ups, whose cost on a
        // virtualized host drifts from run to run.
        if (Burst == 0) {
          std::unique_lock<std::mutex> Lk(Mu);
          Cv.wait(Lk, [&] {
            return Sent.load() - Recvd.load() <= SaturationWindow / 2 ||
                   Broken;
          });
          Burst = SaturationWindow - (Sent.load() - Recvd.load());
        }
        --Burst;
        Due = Clock::now();
        if (Due >= End || Broken)
          break;
      }
      double U = static_cast<double>(R.below(1u << 30)) / (1u << 30);
      size_t Pick = std::min<size_t>(
          std::upper_bound(CumW.begin(), CumW.end(), U * CumW.back()) -
              CumW.begin(),
          Hot.size() - 1);
      Slots[K].Due = Due;
      Slots[K].Choice = static_cast<uint32_t>(Pick);
      LateMs.push_back(usBetween(Due, Clock::now()) / 1000.0);
      if (!Conn.sendFrame(Hot[Pick]))
        break;
      {
        std::lock_guard<std::mutex> Lk(Mu);
        Sent.store(K + 1);
      }
      Cv.notify_all();
    }
    SR.BacklogEnd = Sent.load() - Recvd.load();
    {
      std::lock_guard<std::mutex> Lk(Mu);
      DoneSending = true;
    }
    Cv.notify_all();
  });
  std::thread Receiver([&] {
    pinGeneratorThread();
    for (uint64_t K = 0;; ++K) {
      {
        std::unique_lock<std::mutex> Lk(Mu);
        Cv.wait(Lk, [&] { return Sent.load() > K || DoneSending; });
        if (Sent.load() <= K)
          break;
      }
      ErrorOr<std::string> Resp = Conn.recvFrame(RecvTimeoutMs);
      if (!Resp) {
        std::lock_guard<std::mutex> Lk(Mu);
        Broken = true;
        Cv.notify_all();
        break;
      }
      Slots[K].Done = Clock::now();
      auto It = Ref.find(Hot[Slots[K].Choice]);
      Mismatch[K] = It == Ref.end() || It->second != *Resp;
      {
        std::lock_guard<std::mutex> Lk(Mu);
        Recvd.store(K + 1);
      }
      Cv.notify_all();
    }
  });
  Sender.join();
  Receiver.join();
  SR.Broken = Broken;
  SR.Sent = Sent;
  SR.LateP99Ms = quantile(LateMs, 0.99);

  // Latency by due-time window, throughput by completion-time window.
  size_t NWin = std::max<size_t>(
      1, static_cast<size_t>(std::llround(Seconds / WindowSeconds)));
  std::vector<std::vector<double>> Lat(NWin);
  std::vector<double> Completions(NWin, 0.0);
  auto WindowOf = [&](Clock::time_point T) {
    double At = secondsBetween(Start, T) / WindowSeconds;
    return std::min(NWin - 1, static_cast<size_t>(std::max(0.0, At)));
  };
  uint64_t Received = Recvd.load();
  for (uint64_t K = 0; K < SR.Sent; ++K) {
    ++G.Attempted;
    if (K >= Received) {
      G.fail("serve-front: missing response");
      continue;
    }
    if (Mismatch[K])
      G.fail("serve-front: response differs from the reference stream");
    Lat[WindowOf(Slots[K].Due)].push_back(
        usBetween(Slots[K].Due, Slots[K].Done) / 1000.0);
    if (Slots[K].Done < End)
      Completions[WindowOf(Slots[K].Done)] += 1;
    if (Spans)
      Spans->emplace_back(Slots[K].Due, Slots[K].Done);
  }
  std::vector<double> P50s, Tails, Tputs;
  std::vector<Tail> Shapes;
  for (size_t Wi = 0; Wi < NWin; ++Wi) {
    if (Lat[Wi].empty())
      continue;
    P50s.push_back(median(Lat[Wi]));
    Shapes.push_back(tailOf(Lat[Wi]));
    Tails.push_back(Shapes.back().Value);
    Tputs.push_back(Completions[Wi] / WindowSeconds);
  }
  SR.Windows = static_cast<unsigned>(P50s.size());
  SR.P50Ms = median(P50s);
  SR.Throughput = median(Tputs);
  std::sort(Shapes.begin(), Shapes.end(),
            [](const Tail &A, const Tail &B) { return A.Value < B.Value; });
  if (!Shapes.empty())
    SR.T = Shapes[Shapes.size() / 2];
  SR.T.Value = median(Tails);
  return SR;
}

/// runStep, run again while the generator itself ran late.
StepResult validStep(const std::string &Sock,
                     const std::vector<std::string> &Hot,
                     const std::vector<double> &CumW, uint64_t Seed,
                     double Rate, double Seconds, Gate &G,
                     const std::unordered_map<std::string, std::string> &Ref) {
  StepResult S;
  for (unsigned A = 0; A < Attempts && (A == 0 || !S.valid()); ++A)
    S = runStep(Sock, Hot, CumW, Seed + A, Rate, Seconds, G, Ref);
  return S;
}

/// The ladder walk: doubling steps until one fails, then quarter-octave
/// steps up from the last passing rate. Returns the highest passing rate,
/// interpolated toward the first failing one by where the latency limit
/// falls between their tails.
double ladder(const std::string &Sock, const std::vector<std::string> &Hot,
              const std::vector<double> &CumW, uint64_t Seed,
              double StepSeconds, Gate &G,
              const std::unordered_map<std::string, std::string> &Ref,
              std::string &Log) {
  auto Step = [&](int K) {
    StepResult S = validStep(Sock, Hot, CumW, Seed + 16 * K, ladderRate(K),
                             StepSeconds, G, Ref);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s%.0f/s:%s(tail=%.2fms,late=%.2fms)",
                  Log.empty() ? "" : " ", S.Rate,
                  S.passes() ? "pass" : S.valid() ? "fail" : "invalid",
                  S.T.Value, S.LateP99Ms);
    Log += Buf;
    return S;
  };
  int Pass = -1;
  StepResult LastPass, FirstFail;
  int K = 0;
  for (; K <= 40; K += 4) {
    StepResult S = Step(K);
    if (!S.passes()) {
      FirstFail = S;
      break;
    }
    Pass = K;
    LastPass = S;
  }
  if (Pass < 0)
    return 0.0;
  for (int F = Pass + 1; F < K; ++F) {
    StepResult S = Step(F);
    if (!S.passes()) {
      FirstFail = S;
      break;
    }
    Pass = F;
    LastPass = S;
  }
  double A = LastPass.Rate, B = FirstFail.Rate;
  if (B <= A || FirstFail.T.Value <= LatencyLimitMs)
    return A;
  double Frac = (LatencyLimitMs - LastPass.T.Value) /
                (FirstFail.T.Value - LastPass.T.Value);
  return A + (B - A) * std::clamp(Frac, 0.0, 1.0);
}

std::string describe(const Tail &T, unsigned Windows, double Rate) {
  return "median over " + std::to_string(Windows) + " windows of p" +
         std::to_string(T.Percentile).substr(0, 4) + " of " +
         std::to_string(T.Samples) + " samples at " +
         std::to_string(static_cast<int>(Rate)) + "/s";
}

} // namespace

void runServeFront(const Options &O, Report &R) {
  std::filesystem::create_directories(O.WorkDir);
  Workload W = makeServeHotSet(loadCorpus(O.CorpusDir), O.Seed, O.Tiny);
  std::vector<CorpusNest> C = loadCorpus(O.CorpusDir);
  auto Ref = referenceStream(W.Lines, "irlt-serve");
  // Zipf(0.8) over the 64-request hot set: skewed enough that a few
  // requests dominate, flat enough that how the seed's hot keys hash onto
  // the two shards moves capacity by a few percent, not by half.
  std::vector<double> CumW;
  for (size_t I = 0; I < W.Lines.size(); ++I)
    CumW.push_back((CumW.empty() ? 0.0 : CumW.back()) +
                   1.0 / std::pow(static_cast<double>(I + 1), 0.8));

  // Set-up: start the front until its shards are healthy, then warm the
  // hot set; three times, the last front carries the load.
  std::vector<double> Setup;
  std::unique_ptr<RunningFront> RF;
  for (unsigned I = 0; I < 3; ++I) {
    if (RF)
      RF->stop();
    Clock::time_point T0 = Clock::now();
    RF = startFront(O, I);
    if (!RF || !warm(RF->Sock, W.Lines, Ref, R.G)) {
      R.G.fail("serve-front: front did not start or warm");
      return;
    }
    Setup.push_back(secondsBetween(T0, Clock::now()));
  }
  R.e2e("setup_s", median(Setup), "s");

  if (pinning()) {
    std::vector<pid_t> Shards = RF->F->shardPids();
    for (size_t I = 0; I < Shards.size(); ++I)
      pinProcess(Shards[I], static_cast<int>(I));
    pinProcess(getpid(), 2);
  }

  // Steps scale with the run length: at 10 s, a 2 s reference step, a
  // 1.5 s saturation run and 1.2 s ladder steps.
  double S = O.Seconds;
  uint64_t Seed = O.Seed * 1000003;
  StepResult RefStep = validStep(RF->Sock, W.Lines, CumW, Seed,
                                 ReferenceRate, 0.2 * S, R.G, Ref);
  if (!RefStep.valid()) {
    std::fprintf(stderr,
                 "anatomy: serve-front invalid: the generator ran %.2f ms "
                 "late (p99) at the reference rate\n",
                 RefStep.LateP99Ms);
    std::exit(3);
  }
  StepResult Sat = runStep(RF->Sock, W.Lines, CumW, Seed + 100, 0.0,
                           0.15 * S, R.G, Ref);
  std::string Log;
  double Max = ladder(RF->Sock, W.Lines, CumW, Seed + 200, 0.12 * S, R.G,
                      Ref, Log);
  R.e2e("latency_p50_ms", RefStep.P50Ms, "ms");
  R.e2e("latency_tail_ms", RefStep.T.Value, "ms");
  R.e2e("throughput_rps", Sat.Throughput, "1/s");
  R.e2e("max_rps", Max, "1/s");
  R.Notes["latency_tail"] =
      describe(RefStep.T, RefStep.Windows, ReferenceRate);
  R.Notes["ladder"] = Log;
  R.Notes["loadgen"] = "late p99 " + std::to_string(RefStep.LateP99Ms) +
                       " ms, final backlog " +
                       std::to_string(RefStep.BacklogEnd);
  double Rss = peakRssMb();
  for (pid_t P : RF->F->shardPids())
    if (P > 0)
      Rss += peakRssMb(P);

  if (O.Trace) {
    // The traced repeat of the saturation run keeps every request's
    // (due, completed) span in memory; the throughput difference is the
    // tracing overhead.
    SpanLog Spans;
    StepResult TSat = runStep(RF->Sock, W.Lines, CumW, Seed + 100, 0.0,
                              0.15 * S, R.G, Ref, &Spans);
    R.layer("trace.overhead_frac",
            (Sat.Throughput - TSat.Throughput) / Sat.Throughput, "ratio");
    R.layer("loadgen.late_p99_ms", RefStep.LateP99Ms, "ms");
    R.layer("loadgen.backlog", static_cast<double>(RefStep.BacklogEnd),
            "count");
    R.Notes["spans"] = std::to_string(Spans.size()) + " request spans";
  }
  RF->stop();
  if (pinning())
    pinProcess(getpid(), -1);
  R.e2e("peak_rss_mb", Rss, "MB");

  verifySample(W.Lines, O.Seed, O.Tiny ? 2 : 8, R);
  runNative(O, nativePairs(C, O.Tiny), R);

  if (O.Trace) {
    std::vector<std::string> Sample;
    for (unsigned Rep = 0; Rep < 3; ++Rep)
      Sample.insert(Sample.end(), W.Lines.begin(), W.Lines.end());
    attribute(O, Sample, R);
  }
  for (const char *K : {"auto_locality", "auto_both", "auto_par"})
    R.Counters[std::string("work.requests.") + K] = 0;
  R.Counters["work.requests.script"] = W.Lines.size();
  R.Counters["work.requests"] = W.Lines.size();
}

} // namespace anatomy
