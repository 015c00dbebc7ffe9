//===- anatomy/cpp/Report.cpp - Statistics, gate, stamp and output -------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Pipeline.h"
#include "engine/Engine.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace irlt;

namespace anatomy {

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

double trimmedMean(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t Drop = V.size() / 10;
  return mean(std::vector<double>(V.begin() + Drop, V.end() - Drop));
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.size() < 11)
    return T;
  std::sort(V.begin(), V.end());
  // Percentiles in tenths from 99.9 down to 50: the first one that
  // leaves at least ten samples strictly above its rank.
  for (int Tenths = 999; Tenths >= 500; --Tenths) {
    double P = Tenths / 10.0;
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(V.size())));
    if (Rank == 0)
      Rank = 1;
    if (V.size() - Rank >= 10) {
      T.Percentile = P;
      T.Value = V[Rank - 1];
      return T;
    }
  }
  T.Percentile = 50;
  T.Value = quantile(V, 0.5);
  return T;
}

double peakRssMb(int Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  for (std::string L; std::getline(In, L);)
    if (L.rfind("VmHWM:", 0) == 0)
      return std::stod(L.substr(6)) / 1024.0;
  return 0.0;
}

void Gate::fail(const std::string &Why) {
  ++Failed;
  if (Problems.size() < 20)
    Problems.push_back(Why);
}

bool isTransportError(const std::string &Kind) {
  return Kind == engine::errkind::Overloaded ||
         Kind == engine::errkind::Deadline ||
         Kind == engine::errkind::ShardDown ||
         Kind == engine::errkind::Draining ||
         Kind == engine::errkind::Internal ||
         Kind == engine::errkind::BadFrame;
}

void Gate::check(const std::string &Line, const std::string &Record,
                 const std::unordered_map<std::string, std::string> &Ref) {
  ++Attempted;
  auto It = Ref.find(Line);
  if (It == Ref.end()) {
    fail("no reference record for a request");
    return;
  }
  if (Record.empty()) {
    fail("missing result record");
    return;
  }
  if (Record != It->second) {
    // Name the error kind when the record is a transport/admission
    // failure, else report a plain mismatch.
    std::string Kind = "mismatch";
    size_t P = Record.find("\"kind\":\"");
    if (P != std::string::npos) {
      std::string K = Record.substr(P + 8, Record.find('"', P + 8) - P - 8);
      if (isTransportError(K))
        Kind = K;
    }
    fail(Kind + ": record differs from the reference stream: " +
         Record.substr(0, 160));
  }
}

std::unordered_map<std::string, std::string>
referenceStream(const std::vector<std::string> &Lines,
                const std::string &ToolName) {
  api::PipelineOptions PO;
  PO.EnableCache = false;
  api::Pipeline P(PO);
  engine::EngineOptions EO;
  EO.ToolName = ToolName;
  engine::StageSampler S;
  std::unordered_map<std::string, std::string> Ref;
  uint64_t No = 0;
  for (const std::string &L : Lines)
    if (!Ref.count(L))
      Ref[L] = engine::processRequest(P, EO, L, ++No, S).Record;
  return Ref;
}

namespace {

std::string hostName() {
  char Buf[256] = {};
  if (gethostname(Buf, sizeof(Buf) - 1) != 0)
    return "unknown";
  return Buf;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

void writeStamp(json::JsonWriter &W, const Options &O) {
  W.beginObject();
  W.field("host", hostName());
  W.field("nproc",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  W.field("compiler", std::string(__VERSION__));
  W.field("build_type", std::string(ANATOMY_BUILD_TYPE));
  W.field("commit", O.Commit);
  W.field("seed", O.Seed);
  W.endObject();
}

void printReport(const Options &O, const Report &R) {
  std::printf("== %s seed=%llu trace=%d\n", R.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0);
  for (const auto &[N, VU] : R.EndToEnd)
    std::printf("  %-28s %14s %s\n", N.c_str(), fmt(VU.first).c_str(),
                VU.second.c_str());
  double FailedFrac = R.G.Attempted ? static_cast<double>(R.G.Failed) /
                                          static_cast<double>(R.G.Attempted)
                                    : 1.0;
  std::printf("  %-28s %14s frac (%llu of %llu)\n", "failed_frac",
              fmt(FailedFrac).c_str(),
              static_cast<unsigned long long>(R.G.Failed),
              static_cast<unsigned long long>(R.G.Attempted));
  for (const auto &[N, VU] : R.Layer)
    std::printf("  %-28s %14s %s\n", N.c_str(), fmt(VU.first).c_str(),
                VU.second.c_str());
  for (const auto &[N, V] : R.Counters)
    std::printf("  %-28s %14llu count\n", N.c_str(),
                static_cast<unsigned long long>(V));
  for (const auto &[K, V] : R.Notes)
    std::printf("  %-28s %s\n", K.c_str(), V.c_str());
  for (const std::string &P : R.G.Problems)
    std::printf("  FAILED: %s\n", P.c_str());

  json::JsonWriter W;
  W.beginObject();
  W.field("record", "anatomy");
  W.field("workload", R.Workload);
  W.key("stamp");
  writeStamp(W, O);
  W.field("trace", O.Trace);
  W.field("failed_frac", FailedFrac);
  W.key("end_to_end").beginObject();
  for (const auto &[N, VU] : R.EndToEnd)
    W.field(N, VU.first);
  W.endObject();
  W.key("per_layer").beginObject();
  for (const auto &[N, VU] : R.Layer)
    W.field(N, VU.first);
  W.endObject();
  W.key("counters").beginObject();
  for (const auto &[N, V] : R.Counters)
    W.field(N, V);
  W.endObject();
  W.key("notes").beginObject();
  for (const auto &[K, V] : R.Notes)
    W.field(K, V);
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.take().c_str());
  std::fflush(stdout);
}

} // namespace anatomy
