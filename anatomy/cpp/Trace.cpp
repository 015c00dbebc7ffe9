//===- anatomy/cpp/Trace.cpp - Per-layer attribution of a sample ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's attribution. A sample of the workload's requests is
/// served four times, one caller at a time, each time from the same cold
/// state (fresh Pipeline, cleared process-wide prefix cache), so every
/// replay sees identical cache hits and misses:
///
///   B  engine::processRequest, one span per request;
///   A  the same stage order through api::Pipeline, one span per call
///      (loadNest, dependences, parseScript / searchAuto, analyze,
///      checkLegality, validate, apply, emit);
///   C  a Unix-socket round trip to an in-process serve::Server;
///   D  a round trip through a fresh 2-shard front::Front.
///
/// Self times are differences of these: engine = B - sum(A), serve = C -
/// B, front = D - C. The work counters come from B and A, which run
/// single-threaded from a cold state and therefore repeat exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Pipeline.h"
#include "cachesim/Cache.h"
#include "deps/DepOracle.h"
#include "engine/Engine.h"
#include "engine/Wire.h"
#include "eval/Evaluator.h"
#include "front/Front.h"
#include "legality/IncrementalEngine.h"
#include "search/CostModel.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <unistd.h>

using namespace irlt;

namespace anatomy {

namespace {

/// Span durations (us) per layer name, plus the current request's spans.
struct Spans {
  std::map<std::string, std::vector<double>> ByLayer;
  std::map<std::string, double> Request;

  template <typename F> auto time(const std::string &Layer, F &&Fn) {
    Clock::time_point T0 = Clock::now();
    auto Result = Fn();
    double Us = usBetween(T0, Clock::now());
    ByLayer[Layer].push_back(Us);
    Request[Layer] += Us;
    return Result;
  }
};

std::string requestClass(const engine::BatchRequest &Req) {
  return Req.Auto.empty() ? "script" : "auto_" + Req.Auto;
}

struct SearchTotals {
  uint64_t Enumerated = 0, Leaves = 0, Legal = 0, AnalyzerPruned = 0;
  std::vector<double> WinnerMiss;

  void add(const search::SearchResult &SR) {
    Enumerated += SR.Stats.Enumerated;
    Leaves += SR.Stats.Leaves;
    Legal += SR.Stats.Legal;
    AnalyzerPruned += SR.Stats.AnalyzerPruned;
    if (SR.Best && SR.Best->MissRatio >= 0)
      WinnerMiss.push_back(SR.Best->MissRatio);
  }
};

witness::ValidateOptions validateOptions(const engine::BatchRequest &Req) {
  witness::ValidateOptions VO = witness::ValidateOptions::defaults();
  VO.MaxInstances = Req.ValidateBudget;
  VO.ReproDir.clear();
  return VO;
}

/// Replays one request through api::Pipeline in processRequest's stage
/// order, spanning every call.
void replay(api::Pipeline &P, const engine::BatchRequest &Req, Spans &S,
            SearchTotals &ST) {
  ErrorOr<LoopNest> NestOr =
      S.time("ir.parse", [&] { return P.loadNest(Req.NestSource); });
  if (!NestOr)
    return;
  const LoopNest &Nest = *NestOr;
  bool Overflow = false;
  S.time("deps.cached", [&] { return P.dependences(Nest, &Overflow); });
  if (Overflow)
    return;
  TransformSequence Seq;
  bool Legal = true;
  if (!Req.Auto.empty()) {
    search::SearchOptions SO;
    SO.Obj = Req.Auto == "locality" ? search::Objective::Locality
             : Req.Auto == "par"    ? search::Objective::Parallelism
                                    : search::Objective::Both;
    SO.Beam = Req.Beam;
    SO.Depth = Req.Depth;
    SO.TopK = Req.TopK;
    SO.Threads = 1;
    search::SearchResult SR =
        S.time("search.plan", [&] { return P.searchAuto(Nest, SO); });
    ST.add(SR);
    if (!SR.Best)
      return;
    Seq = SR.Best->Seq;
    if (Req.ValidateBudget) {
      std::vector<TransformSequence> Cands;
      for (const search::ScoredSequence &C : SR.Top)
        Cands.push_back(C.Seq);
      witness::LadderResult LR = S.time("validate", [&] {
        return P.validate(Nest, Cands, validateOptions(Req));
      });
      Seq = LR.fellBackToIdentity() ? TransformSequence()
                                    : Cands[static_cast<size_t>(LR.Chosen)];
    }
    if (Req.Reduce)
      Seq = S.time("reduce", [&] { return Seq.reduced(); });
    if (Req.Analyze)
      S.time("analyze", [&] { return P.analyze(Seq, Nest); });
    Legal = S.time("legality.check", [&] {
                 return P.checkLegality(Seq, Nest);
               }).Legal;
  } else {
    ErrorOr<TransformSequence> SeqOr = S.time("script.parse", [&] {
      return P.parseScript(Req.Script, Nest.numLoops());
    });
    if (!SeqOr)
      return;
    Seq = *SeqOr;
    if (Req.Reduce)
      Seq = S.time("reduce", [&] { return Seq.reduced(); });
    if (Req.Analyze)
      S.time("analyze", [&] { return P.analyze(Seq, Nest); });
    if (Req.Legality)
      Legal = S.time("legality.check", [&] {
                   return P.checkLegality(Seq, Nest);
                 }).Legal;
    if (Req.ValidateBudget && Legal) {
      witness::LadderResult LR = S.time("validate", [&] {
        return P.validate(Nest, {Seq}, validateOptions(Req));
      });
      if (LR.fellBackToIdentity())
        Seq = TransformSequence();
    }
  }
  if (!Req.Emit.empty() && Legal) {
    ErrorOr<LoopNest> Applied =
        S.time("apply", [&] { return P.apply(Seq, Nest); });
    if (Applied)
      S.time("emit", [&] {
        return P.emit(*Applied, Req.Emit == "c" ? api::EmitKind::C
                                                : api::EmitKind::Loop);
      });
  }
}

/// Round-trip times (us) of \p Lines over one connection, one at a time.
std::vector<double> roundTrips(const std::string &Sock,
                               const std::vector<std::string> &Lines,
                               Gate &G) {
  std::vector<double> Rt;
  ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
  if (!C) {
    G.fail("attribution: cannot connect to " + Sock);
    return Rt;
  }
  for (const std::string &L : Lines) {
    Clock::time_point T0 = Clock::now();
    if (!C->sendFrame(L) || !C->recvFrame(60000)) {
      G.fail("attribution: no response over " + Sock);
      break;
    }
    Rt.push_back(usBetween(T0, Clock::now()));
  }
  return Rt;
}

/// Median over requests of A[i] - B[i]: robust to the run-to-run noise of
/// the few expensive requests, which is larger than a hop's self time.
double medianDiff(const std::vector<double> &A, const std::vector<double> &B) {
  std::vector<double> D;
  for (size_t I = 0; I < std::min(A.size(), B.size()); ++I)
    D.push_back(A[I] - B[I]);
  return median(D);
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

/// Interpreter and cache-simulator cost on \p Nest under the cost
/// model's default bindings: the two halves of one cost evaluation.
void costHalves(const LoopNest &Nest, std::vector<double> &NsPerInstance,
                std::vector<double> &NsPerAccess,
                std::vector<double> &CostEvalMs) {
  search::CostModelOptions CO;
  CO.Params = search::CostModel::defaultBindings(Nest);
  {
    search::CostModel CM(Nest, CO);
    if (!CM.unusableReason().empty())
      return;
    TransformSequence Id;
    Clock::time_point T0 = Clock::now();
    std::optional<double> Miss = CM.missRatio(Id, Id.reduced().str());
    if (!Miss)
      return;
    CostEvalMs.push_back(usBetween(T0, Clock::now()) / 1000.0);
  }
  EvalConfig EC;
  EC.Params = CO.Params;
  EC.RecordAccesses = true;
  EC.MaxInstances = CO.MaxInstances;
  ArrayStore Store;
  Clock::time_point T0 = Clock::now();
  EvalResult ER = evaluate(Nest, EC, Store);
  double EvalNs = usBetween(T0, Clock::now()) * 1000.0;
  if (ER.LimitHit || ER.Instances.empty() || ER.Accesses.empty())
    return;
  NsPerInstance.push_back(EvalNs / static_cast<double>(ER.Instances.size()));
  std::map<std::string, std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      Extents;
  for (const MemAccess &A : ER.Accesses) {
    auto [It, New] = Extents.try_emplace(A.Array, A.Subs, A.Subs);
    for (size_t D = 0; !New && D < A.Subs.size(); ++D) {
      It->second.first[D] = std::min(It->second.first[D], A.Subs[D]);
      It->second.second[D] = std::max(It->second.second[D], A.Subs[D]);
    }
  }
  ArrayLayout Layout;
  for (auto &[Name, LH] : Extents)
    Layout.declare(Name, LH.first, LH.second);
  T0 = Clock::now();
  replayTrace(ER.Accesses, Layout, CacheConfig{8 * 1024, 64, 4});
  NsPerAccess.push_back(usBetween(T0, Clock::now()) * 1000.0 /
                        static_cast<double>(ER.Accesses.size()));
}

} // namespace

void attribute(const Options &O, const std::vector<std::string> &Sample,
               Report &R) {
  std::vector<std::string> Lines;
  std::vector<engine::BatchRequest> Reqs;
  for (const std::string &L : Sample) {
    ErrorOr<engine::BatchRequest> Req = engine::parseRequestLine(L, 1);
    if (Req) {
      Lines.push_back(L);
      Reqs.push_back(Req.take());
    }
  }
  auto &Global = legality::IncrementalEngine::global();

  // B: processRequest.
  std::vector<double> SpanB;
  {
    Global.clear();
    legality::EngineStats Before = Global.stats();
    api::Pipeline P;
    engine::EngineOptions EO;
    engine::StageSampler S;
    for (size_t I = 0; I < Lines.size(); ++I) {
      Clock::time_point T0 = Clock::now();
      engine::processRequest(P, EO, Lines[I], I + 1, S);
      SpanB.push_back(usBetween(T0, Clock::now()));
    }
    legality::EngineStats After = Global.stats();
    api::CacheStats CS = P.cacheStats();
    uint64_t PrefixHits = After.Hits - Before.Hits;
    uint64_t PrefixLookups = PrefixHits + After.Misses - Before.Misses;
    R.Counters["work.sample_requests"] = Lines.size();
    R.Counters["work.dep_lookups"] = CS.DepLookups;
    R.Counters["work.dep_hits"] = CS.DepHits;
    R.Counters["work.legality_lookups"] = CS.LegalityLookups;
    R.Counters["work.legality_hits"] = CS.LegalityHits;
    R.Counters["work.prefix_lookups"] = PrefixLookups;
    R.Counters["work.prefix_hits"] = PrefixHits;
    R.layer("deps.cache_hit_ratio", ratio(CS.DepHits, CS.DepLookups),
            "ratio");
    R.layer("legality.cache_hit_ratio",
            ratio(CS.LegalityHits, CS.LegalityLookups), "ratio");
    R.layer("legality.prefix_hit_ratio", ratio(PrefixHits, PrefixLookups),
            "ratio");
  }

  // A: the same stages through api::Pipeline, call by call.
  Spans S;
  SearchTotals ST;
  std::vector<double> SumA;
  // Per request class: summed span time per layer, and the class size.
  std::map<std::string, std::map<std::string, double>> ByClass;
  std::map<std::string, unsigned> ClassSize;
  {
    Global.clear();
    api::Pipeline P;
    for (const engine::BatchRequest &Req : Reqs) {
      S.Request.clear();
      replay(P, Req, S, ST);
      double Sum = 0;
      for (const auto &[Layer, Us] : S.Request) {
        Sum += Us;
        ByClass[requestClass(Req)][Layer] += Us;
      }
      SumA.push_back(Sum);
      ++ClassSize[requestClass(Req)];
    }
  }
  // The share of the replayed request time spent in searchAuto, from A
  // alone: comparing with B's spans would mix in their run-to-run noise.
  double TotalA = 0, PlanUs = 0;
  for (double X : SumA)
    TotalA += X;
  for (double X : S.ByLayer["search.plan"])
    PlanUs += X;
  R.layer("engine.self_us", medianDiff(SpanB, SumA), "us");
  R.layer("search.plan_share", TotalA > 0 ? PlanUs / TotalA : 0.0, "ratio");

  // C: an in-process serve::Server over a Unix socket.
  std::filesystem::create_directories(O.WorkDir);
  std::vector<double> RtC;
  {
    Global.clear();
    serve::ServeOptions SO;
    SO.SocketPath = O.WorkDir + "/s" + std::to_string(getpid()) + ".sock";
    SO.Jobs = 1;
    serve::Server Srv(SO);
    if (!Srv.start()) {
      R.G.fail("attribution: serve::Server did not start");
    } else {
      std::thread Run([&] { Srv.run(); });
      RtC = roundTrips(SO.SocketPath, Lines, R.G);
      Srv.requestDrain();
      Run.join();
      const serve::ServerStats &SS = Srv.stats();
      R.layer("serve.shed_frac", ratio(SS.Shed, SS.FramesIn), "ratio");
    }
  }
  R.layer("serve.self_us", medianDiff(RtC, SpanB), "us");

  // Worker utilization from the engine's own metrics, for workloads whose
  // own loop does not run a BatchEngine.
  if (!R.Layer.count("engine.worker_utilization")) {
    Global.clear();
    engine::EngineOptions EO;
    EO.Jobs = 2;
    engine::BatchEngine E(EO);
    engine::EngineMetrics M = E.run(Lines, [](const std::string &) {});
    R.layer("engine.worker_utilization", M.workerUtilization(), "ratio");
  }

  // D: a fresh 2-shard front (cold worker processes).
  std::vector<double> RtD;
  if (std::unique_ptr<RunningFront> RF = startFront(O, 99)) {
    RtD = roundTrips(RF->Sock, Lines, R.G);
    const front::FrontStats &FS = RF->F->stats();
    R.layer("front.shed_frac", ratio(FS.WindowShed, FS.FramesIn), "ratio");
    R.layer("front.restarts", static_cast<double>(FS.Restarts.load()),
            "count");
    RF->stop();
  } else {
    R.G.fail("attribution: front did not start");
  }
  R.layer("front.self_us", medianDiff(RtD, RtC), "us");

  // Where the time goes, per request class: mean microseconds per request
  // in each replayed call and in each hop's self time.
  for (size_t I = 0; I < Reqs.size(); ++I) {
    std::map<std::string, double> &C = ByClass[requestClass(Reqs[I])];
    C["request"] += I < SpanB.size() ? SpanB[I] : 0.0;
    if (I < SpanB.size())
      C["engine.self"] += SpanB[I] - SumA[I];
    if (I < RtC.size() && I < SpanB.size())
      C["serve.self"] += RtC[I] - SpanB[I];
    if (I < RtD.size() && I < RtC.size())
      C["front.self"] += RtD[I] - RtC[I];
  }
  for (const auto &[Class, Layers] : ByClass) {
    std::string Line = std::to_string(ClassSize[Class]) + " requests;";
    for (const auto &[Layer, Us] : Layers) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), " %s=%.1fus", Layer.c_str(),
                    Us / ClassSize[Class]);
      Line += Buf;
    }
    R.Notes["anatomy." + Class] = Line;
  }

  // Layers the sample's traffic never reached get one probe call per
  // sample nest, so every layer is timed on this workload's own nests.
  api::Pipeline P;
  std::vector<LoopNest> Nests;
  std::set<std::string> Seen;
  for (const engine::BatchRequest &Req : Reqs)
    if (Seen.insert(Req.NestSource).second && Nests.size() < 4)
      if (ErrorOr<LoopNest> N = P.loadNest(Req.NestSource))
        Nests.push_back(*N);
  std::sort(Nests.begin(), Nests.end(),
            [](const LoopNest &A, const LoopNest &B) {
              return A.numLoops() < B.numLoops();
            });
  std::vector<std::string> Probed;
  auto Probe = [&](const std::string &Layer, auto &&Fn) {
    if (!S.ByLayer[Layer].empty())
      return;
    Probed.push_back(Layer);
    for (const LoopNest &N : Nests)
      S.time(Layer, [&] { return Fn(N); });
  };
  TransformSequence Id;
  if (!Nests.empty()) {
    Probe("search.plan", [&](const LoopNest &N) {
      search::SearchOptions SO;
      SO.Obj = search::Objective::Locality;
      SO.Beam = 2;
      SO.Depth = 1;
      SO.Threads = 1;
      search::SearchResult SR = P.searchAuto(N, SO);
      ST.add(SR);
      return 0;
    });
    Probe("legality.check",
          [&](const LoopNest &N) { return P.checkLegality(Id, N); });
    Probe("analyze", [&](const LoopNest &N) { return P.analyze(Id, N); });
    Probe("validate", [&](const LoopNest &N) {
      engine::BatchRequest Req;
      Req.ValidateBudget = 500;
      return P.validate(N, {Id}, validateOptions(Req));
    });
    Probe("apply", [&](const LoopNest &N) { return P.apply(Id, N); });
    Probe("emit",
          [&](const LoopNest &N) { return P.emit(N, api::EmitKind::C); });
  }
  std::string ProbedList;
  for (const std::string &L : Probed)
    ProbedList += (ProbedList.empty() ? "" : ", ") + L;
  R.Notes["probed_layers"] = ProbedList.empty() ? "none" : ProbedList;

  auto MeanUs = [&](const std::string &Layer) {
    return mean(S.ByLayer[Layer]);
  };
  R.layer("ir.parse_us", MeanUs("ir.parse"), "us");
  R.layer("deps.cached_us", MeanUs("deps.cached"), "us");
  R.layer("legality.check_us", MeanUs("legality.check"), "us");
  R.layer("apply.us", MeanUs("apply"), "us");
  R.layer("emit.us", MeanUs("emit"), "us");
  R.layer("analyze.us", MeanUs("analyze"), "us");
  R.layer("validate.us", MeanUs("validate"), "us");
  R.layer("search.plan_ms", MeanUs("search.plan") / 1000.0, "ms");
  R.layer("search.enumerated", static_cast<double>(ST.Enumerated), "count");
  R.layer("search.leaves", static_cast<double>(ST.Leaves), "count");
  R.layer("search.legal", static_cast<double>(ST.Legal), "count");
  R.layer("search.analyzer_pruned", static_cast<double>(ST.AnalyzerPruned),
          "count");
  R.layer("search.winner_miss_ratio", mean(ST.WinnerMiss), "ratio");
  R.Counters["work.search.enumerated"] = ST.Enumerated;
  R.Counters["work.search.leaves"] = ST.Leaves;
  R.Counters["work.search.legal"] = ST.Legal;
  R.Counters["work.search.analyzer_pruned"] = ST.AnalyzerPruned;

  // Dependence backends and the two halves of a cost evaluation, on the
  // same nests.
  std::vector<double> PipeUs, ExactUs, NsInst, NsAcc, CostMs;
  for (const LoopNest &N : Nests) {
    Clock::time_point T0 = Clock::now();
    deps::pipelineOracle().analyze(N);
    PipeUs.push_back(usBetween(T0, Clock::now()));
    T0 = Clock::now();
    deps::fmExactOracle().analyze(N);
    ExactUs.push_back(usBetween(T0, Clock::now()));
    costHalves(N, NsInst, NsAcc, CostMs);
  }
  R.layer("deps.pipeline_us", mean(PipeUs), "us");
  R.layer("deps.fm_exact_us", mean(ExactUs), "us");
  R.layer("eval.ns_per_instance", mean(NsInst), "ns");
  R.layer("cachesim.ns_per_access", mean(NsAcc), "ns");
  R.layer("search.cost_eval_ms", mean(CostMs), "ms");
}

} // namespace anatomy
