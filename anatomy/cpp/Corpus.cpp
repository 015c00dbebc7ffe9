//===- anatomy/cpp/Corpus.cpp - Seeded workload generation ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the three workloads from the versioned corpus (corpus/) and the
/// seed. The seed picks the generated fuzz nests and scripts, the request
/// flags and the order requests are sent; the fixed corpus part is in every seed's
/// workload, so the total work of a pass - and with it every end-to-end
/// metric - stays comparable across seeds.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/NestGen.h"
#include "fuzz/ScriptGen.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace irlt;

namespace anatomy {

namespace {

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Request flags beyond mode and script.
struct Flags {
  bool Reduce = false;
  bool Analyze = false;
  std::string Emit;
  uint64_t Validate = 0;
};

std::string flagFields(const Flags &F) {
  std::string S;
  if (F.Reduce)
    S += ", \"reduce\": true";
  if (F.Analyze)
    S += ", \"analyze\": true";
  if (!F.Emit.empty())
    S += ", \"emit\": \"" + F.Emit + "\"";
  if (F.Validate)
    S += ", \"validate\": " + std::to_string(F.Validate);
  return S;
}

std::string scriptLine(const std::string &Id, const std::string &Nest,
                       const std::string &Script, const Flags &F) {
  return "{\"id\": \"" + Id + "\", \"nest\": \"" + json::escape(Nest) +
         "\", \"script\": \"" + json::escape(Script) + "\"" + flagFields(F) +
         "}";
}

std::string autoLine(const std::string &Id, const std::string &Nest,
                     const std::string &Mode, unsigned Beam, unsigned Depth,
                     const Flags &F) {
  return "{\"id\": \"" + Id + "\", \"nest\": \"" + json::escape(Nest) +
         "\", \"auto\": \"" + Mode + "\", \"beam\": " + std::to_string(Beam) +
         ", \"depth\": " + std::to_string(Depth) + flagFields(F) + "}";
}

/// A seeded fuzz nest that parses and stays within \p MaxDepth loops.
std::string fuzzNest(fuzz::Rng &R, unsigned MaxDepth) {
  fuzz::NestGenOptions NO;
  NO.MaxDepth = MaxDepth;
  return fuzz::generateNest(R, NO).render();
}

std::string fuzzScript(fuzz::Rng &R, unsigned Loops, unsigned MaxSteps) {
  fuzz::ScriptGenOptions SO;
  SO.MaxSteps = MaxSteps;
  return fuzz::joinScript(fuzz::generateScript(R, Loops, SO).Lines);
}

unsigned loopCount(const std::string &Src) {
  unsigned N = 0;
  std::istringstream In(Src);
  for (std::string L; std::getline(In, L);) {
    size_t P = L.find_first_not_of(' ');
    if (P != std::string::npos && L.compare(P, 3, "do ") == 0)
      ++N;
  }
  return N;
}

} // namespace

std::vector<CorpusNest> loadCorpus(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<CorpusNest> Out;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC)) {
    std::fprintf(stderr, "anatomy: no corpus directory '%s'\n", Dir.c_str());
    std::exit(2);
  }
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files)
    if (P.extension() == ".nest")
      Out.push_back({P.stem().string(), readFile(P), {}});
  for (const fs::path &P : Files) {
    if (P.extension() != ".script")
      continue;
    std::string Stem = P.stem().string();
    std::string Owner = Stem.substr(0, Stem.find('.'));
    for (CorpusNest &N : Out)
      if (N.Name == Owner)
        N.Scripts.push_back(readFile(P));
  }
  if (Out.empty()) {
    std::fprintf(stderr, "anatomy: corpus '%s' holds no nests\n", Dir.c_str());
    std::exit(2);
  }
  return Out;
}

std::vector<size_t> Workload::passOrder(fuzz::Rng &R) const {
  std::vector<size_t> Order(Lines.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  shuffle(Order, R);
  if (!Cost.empty())
    std::stable_sort(Order.begin(), Order.end(),
                     [&](size_t A, size_t B) { return Cost[A] > Cost[B]; });
  return Order;
}

std::vector<std::string> Workload::distinct() const {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  for (const std::string &L : Lines)
    if (Seen.insert(L).second)
      Out.push_back(L);
  return Out;
}

// search-mix: every corpus nest gets a locality search at beam/depth 2/1
// (the native winner check compiles these) and two parallelism searches;
// each two-loop nest also gets a 'both' search at 2/1 and a cost-model
// search at 4/2 (alternately 'both' and 'locality' in name order); four
// seeded fuzz nests carry emit/analyze/validate flags so those layers see
// search traffic.
// Every distinct request is sent twice. The seed picks the fuzz nests
// and the order within each cost class (every pass draws a new one); the
// classes go heaviest first, so the two callers finish a pass together
// instead of one idling while the other runs the last expensive search.
Workload makeSearchMix(const std::vector<CorpusNest> &C, uint64_t Seed,
                       bool Tiny) {
  fuzz::Rng R(fuzz::mix64(Seed ^ 0x5ea7c4ull));
  struct Item {
    std::string Line, Kind;
    int Cost; ///< 2: cost-model search of a deeper nest, 1: at 4/2, 0: rest
  };
  std::vector<Item> Distinct;
  unsigned K = 0;
  auto Add = [&](const std::string &Nest, const std::string &Mode,
                 unsigned Beam, unsigned Depth, const Flags &F) {
    int Cost = Mode == "par" ? 0 : loopCount(Nest) > 2 ? 2 : Beam > 2 ? 1 : 0;
    Distinct.push_back({autoLine("search-" + std::to_string(Seed) + "-" +
                                     std::to_string(K++),
                                 Nest, Mode, Beam, Depth, F),
                        "auto_" + Mode, Cost});
  };
  unsigned TwoLoop = 0;
  for (const CorpusNest &N : C) {
    if (Tiny && N.Name != "interchange" && N.Name != "stencil")
      continue;
    Add(N.Source, "locality", 2, 1, {});
    Add(N.Source, "par", 2, 1, {});
    if (Tiny)
      continue;
    Add(N.Source, "par", 4, 2, {});
    if (loopCount(N.Source) != 2)
      continue;
    Add(N.Source, "both", 2, 1, {});
    Add(N.Source, TwoLoop++ % 2 ? "locality" : "both", 4, 2, {});
  }
  // Parallelism searches only, so these requests always cost less than
  // the median one and the seed cannot move which request is the median.
  unsigned Fuzz = Tiny ? 1 : 4;
  for (unsigned I = 0; I < Fuzz; ++I) {
    Flags F;
    F.Emit = I % 2 ? "c" : "loop";
    F.Analyze = true;
    F.Validate = 1000;
    F.Reduce = I % 2;
    Add(fuzzNest(R, 2), "par", 2, 1, F);
  }
  std::vector<Item> All = Distinct;
  All.insert(All.end(), Distinct.begin(), Distinct.end());
  shuffle(All, R);
  std::stable_sort(All.begin(), All.end(), [](const Item &A, const Item &B) {
    return A.Cost > B.Cost;
  });
  Workload W;
  W.Name = "search-mix";
  for (Item &I : All) {
    W.Lines.push_back(std::move(I.Line));
    W.Kinds.push_back(std::move(I.Kind));
    W.Cost.push_back(I.Cost);
  }
  return W;
}

// transform-mix: mostly distinct seeded fuzz nests plus the corpus nests,
// several scripts per nest (dependence cache hits, legality cache
// misses), reduce/emit/analyze/validate flags, and one exact repeat for
// every seven distinct requests.
Workload makeTransformMix(const std::vector<CorpusNest> &C, uint64_t Seed,
                          bool Tiny) {
  fuzz::Rng R(fuzz::mix64(Seed ^ 0x7a45f0ull));
  Workload W;
  W.Name = "transform-mix";
  std::vector<std::string> Lines;
  unsigned K = 0;
  // Flags follow fixed fractions of the requests (30% reduce, 28%
  // analyze, 25% emit, 14% validate), so the seed changes which nests and
  // scripts carry them but not how much flagged work a pass holds.
  // Validation binds only the fuzz parameters (n, m, b), so corpus scripts
  // with symbolic block sizes are never validated: the validation ladder
  // asserts on an unbound symbol instead of reporting it.
  auto Add = [&](const std::string &Nest, const std::string &Script,
                 bool MayValidate) {
    Flags F;
    F.Reduce = K % 10 < 3;
    F.Analyze = K % 7 < 2;
    if (K % 4 == 1)
      F.Emit = K / 4 % 2 ? "c" : "loop";
    if (MayValidate && K % 7 == 3)
      F.Validate = 500u << (K / 7 % 3);
    Lines.push_back(scriptLine("transform-" + std::to_string(Seed) + "-" +
                                   std::to_string(K++),
                               Nest, Script, F));
  };
  // Two hundred fuzz nests of at most two loops: dependence analysis of
  // deeper nests is heavy-tailed enough that a few draws would set the
  // cost of a pass; with these, a pass costs the same within a few
  // percent whatever the seed draws.
  unsigned FuzzNests = Tiny ? 2 : 200;
  for (unsigned I = 0; I < FuzzNests; ++I) {
    std::string Src = fuzzNest(R, 2);
    unsigned Loops = loopCount(Src);
    for (unsigned S = 0; S < 3; ++S)
      Add(Src, fuzzScript(R, Loops, 3), true);
  }
  for (const CorpusNest &N : C) {
    if (Tiny && N.Name != "stencil")
      continue;
    for (const std::string &S : N.Scripts)
      Add(N.Source, S, false);
    Add(N.Source, fuzzScript(R, loopCount(N.Source), 3), true);
  }
  size_t Distinct = Lines.size();
  for (size_t I = 3; I < Distinct; I += 7)
    Lines.push_back(Lines[I]);
  shuffle(Lines, R);
  W.Lines = std::move(Lines);
  W.Kinds.assign(W.Lines.size(), "script");
  return W;
}

// serve-front hot set: corpus scripts plus seeded fuzz nest/script pairs,
// plain or reduced, so every request is a cache hit of tens of
// microseconds once warm and the Zipf head's cost does not swing with the
// seed (emit, analyze and validate would multiply one request's cost).
Workload makeServeHotSet(const std::vector<CorpusNest> &C, uint64_t Seed,
                         bool Tiny) {
  fuzz::Rng R(fuzz::mix64(Seed ^ 0x5e77e0ull));
  Workload W;
  W.Name = "serve-front";
  unsigned K = 0;
  auto Add = [&](const std::string &Nest, const std::string &Script) {
    Flags F;
    F.Reduce = K % 4 == 0;
    W.Lines.push_back(scriptLine("hot-" + std::to_string(Seed) + "-" +
                                     std::to_string(K++),
                                 Nest, Script, F));
  };
  for (const CorpusNest &N : C) {
    if (Tiny && N.Name != "stencil")
      continue;
    for (const std::string &S : N.Scripts)
      Add(N.Source, S);
  }
  // Fuzz nests of at most two loops: their cold dependence analysis, which
  // the set-up's warm pass pays, stays cheap whatever the seed draws.
  unsigned Fuzz = Tiny ? 3 : 54;
  for (unsigned I = 0; I < Fuzz; ++I) {
    std::string Src = fuzzNest(R, 2);
    Add(Src, fuzzScript(R, loopCount(Src), 3));
  }
  shuffle(W.Lines, R);
  W.Kinds.assign(W.Lines.size(), "script");
  return W;
}

std::vector<NativePair> nativePairs(const std::vector<CorpusNest> &C,
                                    bool Tiny) {
  std::vector<NativePair> Out;
  for (const CorpusNest &N : C)
    if (!Tiny || N.Name == "stencil" || N.Name == "interchange")
      Out.push_back({N.Name, N.Source});
  return Out;
}

} // namespace anatomy
