//===- cachesim/Cache.cpp - Set-associative LRU cache simulator ----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cachesim/Cache.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace irlt;

CacheSim::CacheSim(const CacheConfig &Config) : Config(Config) {
  assert(Config.LineBytes > 0 && Config.Associativity > 0 &&
         Config.SizeBytes >= Config.LineBytes * Config.Associativity &&
         "malformed cache geometry");
  NumSets = Config.SizeBytes / (Config.LineBytes * Config.Associativity);
  assert(NumSets > 0);
  Sets.resize(NumSets);
}

void CacheSim::reset() {
  for (std::vector<Line> &S : Sets)
    S.clear();
  Clock = Hits = Misses = 0;
}

bool CacheSim::access(uint64_t Addr) {
  uint64_t LineAddr = Addr / Config.LineBytes;
  uint64_t SetIdx = LineAddr % NumSets;
  uint64_t Tag = LineAddr / NumSets;
  ++Clock;
  std::vector<Line> &S = Sets[SetIdx];
  for (Line &L : S) {
    if (L.Tag == Tag) {
      L.LastUse = Clock;
      ++Hits;
      return true;
    }
  }
  ++Misses;
  if (S.size() < Config.Associativity) {
    S.push_back(Line{Tag, Clock});
    return false;
  }
  // Evict the least recently used way.
  size_t Victim = 0;
  for (size_t I = 1; I < S.size(); ++I)
    if (S[I].LastUse < S[Victim].LastUse)
      Victim = I;
  S[Victim] = Line{Tag, Clock};
  return false;
}

unsigned ArrayLayout::declare(const std::string &Array,
                              std::vector<int64_t> Lows,
                              std::vector<int64_t> Highs) {
  assert(Lows.size() == Highs.size() && "extent arity mismatch");
  Info I;
  I.Base = NextBase;
  uint64_t Elems = 1;
  for (size_t D = 0; D < Lows.size(); ++D) {
    assert(Highs[D] >= Lows[D] && "empty array extent");
    I.Strides.push_back(Elems);
    Elems *= static_cast<uint64_t>(Highs[D] - Lows[D] + 1);
  }
  I.Lows = std::move(Lows);
  I.Highs = std::move(Highs);
  unsigned Id = static_cast<unsigned>(Infos.size());
  Infos.push_back(std::move(I));
  Ids.emplace(Array, Id);
  uint64_t Bytes = Elems * 8;
  NextBase += (Bytes + 4095) / 4096 * 4096 + 4096; // 4KiB-align + guard page
  return Id;
}

uint64_t ArrayLayout::addressOf(const std::string &Array,
                                const std::vector<int64_t> &Subs) const {
  auto It = Ids.find(Array);
  assert(It != Ids.end() && "access to undeclared array");
  const Info &I = Infos[It->second];
  assert(Subs.size() == I.Lows.size() && "subscript arity mismatch");
  uint64_t Offset = 0;
  for (size_t D = 0; D < Subs.size(); ++D) {
    assert(Subs[D] >= I.Lows[D] && Subs[D] <= I.Highs[D] &&
           "subscript out of declared range");
    Offset += static_cast<uint64_t>(Subs[D] - I.Lows[D]) * I.Strides[D];
  }
  return I.Base + Offset * 8;
}

ArrayLayout::AffineAddress ArrayLayout::affineAddress(unsigned Id) const {
  // Base + sum_d (S_d - L_d) * Stride_d * 8, regrouped; unsigned
  // wraparound makes the regrouping exact.
  const Info &I = Infos[Id];
  AffineAddress A;
  A.Offset = I.Base;
  for (size_t D = 0; D < I.Lows.size(); ++D) {
    A.Coefs.push_back(I.Strides[D] * 8);
    A.Offset -= static_cast<uint64_t>(I.Lows[D]) * A.Coefs.back();
  }
  return A;
}

double irlt::replayTrace(const std::vector<MemAccess> &Accesses,
                         const ArrayLayout &Layout,
                         const CacheConfig &Config) {
  CacheSim Sim(Config);
  for (const MemAccess &A : Accesses)
    Sim.access(Layout.addressOf(A.Array, A.Subs));
  return Sim.missRatio();
}
