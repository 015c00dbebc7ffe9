//===- fuzz/ScriptGen.cpp - Random transformation-script generation -------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "fuzz/ScriptGen.h"

using namespace irlt;
using namespace irlt::fuzz;

namespace {

/// A coefficient for skews / matrix entries / sizes: small normally, huge
/// in overflow mode (2^31-ish, so products of two leave int64).
int64_t coefficient(Rng &R, bool Overflow) {
  if (Overflow)
    return INT64_C(3037000500) + static_cast<int64_t>(R.below(997));
  int64_t C = R.range(-2, 2);
  return C ? C : 1;
}

/// Emits one directive for a nest of Size loops and returns the size of
/// the transformed nest. Appends the directive text to Lines.
unsigned emitDirective(Rng &R, unsigned Size, const ScriptGenOptions &Opts,
                       std::vector<std::string> &Lines) {
  bool CanGrow = Size < Opts.SizeCap;
  for (;;) {
    switch (R.below(10)) {
    case 0: { // interchange a b
      if (Size < 2)
        break;
      unsigned A = 1 + static_cast<unsigned>(R.below(Size));
      unsigned B = 1 + static_cast<unsigned>(R.below(Size));
      if (A == B)
        B = A % Size + 1;
      Lines.push_back("interchange " + std::to_string(A) + " " +
                      std::to_string(B));
      return Size;
    }
    case 1: { // reverse k
      Lines.push_back("reverse " +
                      std::to_string(1 + R.below(Size)));
      return Size;
    }
    case 2: { // permute: a full random permutation
      std::vector<unsigned> Perm(Size);
      for (unsigned K = 0; K < Size; ++K)
        Perm[K] = K + 1;
      for (unsigned K = Size; K > 1; --K)
        std::swap(Perm[K - 1], Perm[R.below(K)]);
      std::string L = "permute";
      for (unsigned P : Perm)
        L += " " + std::to_string(P);
      Lines.push_back(std::move(L));
      return Size;
    }
    case 3: { // parallelize a nonempty subset
      std::string L = "parallelize";
      unsigned Count = 0;
      for (unsigned K = 1; K <= Size; ++K)
        if (R.flip()) {
          L += " " + std::to_string(K);
          ++Count;
        }
      if (!Count)
        L += " " + std::to_string(1 + R.below(Size));
      Lines.push_back(std::move(L));
      return Size;
    }
    case 4: { // block i j sizes...
      if (!CanGrow)
        break;
      unsigned Span = 1 + static_cast<unsigned>(
                              R.below(std::min(Size, Opts.SizeCap - Size)));
      unsigned I = 1 + static_cast<unsigned>(R.below(Size - Span + 1));
      unsigned J = I + Span - 1;
      std::string L = "block " + std::to_string(I) + " " + std::to_string(J);
      for (unsigned K = I; K <= J; ++K) {
        if (!Opts.OverflowMode && R.percent(20))
          L += " b"; // symbolic block size from the binding pool
        else
          L += " " + std::to_string(
                         Opts.OverflowMode ? coefficient(R, true)
                                           : R.range(2, 4));
      }
      Lines.push_back(std::move(L));
      return Size + Span;
    }
    case 5: { // coalesce i j
      if (Size < 2)
        break;
      unsigned I = 1 + static_cast<unsigned>(R.below(Size - 1));
      unsigned J = I + 1 +
                   static_cast<unsigned>(R.below(Size - I));
      Lines.push_back("coalesce " + std::to_string(I) + " " +
                      std::to_string(J));
      return Size - (J - I);
    }
    case 6: { // interleave i j sizes...
      if (!CanGrow)
        break;
      unsigned Span = 1 + static_cast<unsigned>(
                              R.below(std::min(Size, Opts.SizeCap - Size)));
      unsigned I = 1 + static_cast<unsigned>(R.below(Size - Span + 1));
      unsigned J = I + Span - 1;
      std::string L =
          "interleave " + std::to_string(I) + " " + std::to_string(J);
      for (unsigned K = I; K <= J; ++K)
        L += " " + std::to_string(Opts.OverflowMode ? coefficient(R, true)
                                                    : R.range(2, 3));
      Lines.push_back(std::move(L));
      return Size + Span;
    }
    case 7: { // stripmine k size
      if (!CanGrow)
        break;
      Lines.push_back("stripmine " + std::to_string(1 + R.below(Size)) + " " +
                      std::to_string(Opts.OverflowMode ? coefficient(R, true)
                                                       : R.range(2, 5)));
      return Size + 1;
    }
    case 8: { // skew a b f
      if (Size < 2)
        break;
      unsigned A = 1 + static_cast<unsigned>(R.below(Size));
      unsigned B = 1 + static_cast<unsigned>(R.below(Size));
      if (A == B)
        B = A % Size + 1;
      Lines.push_back("skew " + std::to_string(A) + " " + std::to_string(B) +
                      " " + std::to_string(coefficient(R, Opts.OverflowMode)));
      return Size;
    }
    default: { // unimodular: identity hit with 1-2 elementary row ops
      std::vector<std::vector<int64_t>> M(
          Size, std::vector<int64_t>(Size, 0));
      for (unsigned K = 0; K < Size; ++K)
        M[K][K] = 1;
      unsigned Ops = 1 + static_cast<unsigned>(R.below(2));
      for (unsigned Op = 0; Op < Ops; ++Op) {
        unsigned A = static_cast<unsigned>(R.below(Size));
        // Overflow-mode coefficients overflow int64 here; the row
        // operations wrap (two's complement through uint64_t), which keeps
        // every generated matrix, and so every corpus and seed, as it was.
        switch (Size < 2 ? 1u : static_cast<unsigned>(R.below(3))) {
        case 0: { // row_b += c * row_a
          unsigned B = static_cast<unsigned>(R.below(Size));
          if (B == A)
            B = (B + 1) % Size;
          uint64_t C = static_cast<uint64_t>(coefficient(R, Opts.OverflowMode));
          for (unsigned K = 0; K < Size; ++K)
            M[B][K] = static_cast<int64_t>(static_cast<uint64_t>(M[B][K]) +
                                           C * static_cast<uint64_t>(M[A][K]));
          break;
        }
        case 1: // negate a row
          for (unsigned K = 0; K < Size; ++K)
            M[A][K] = static_cast<int64_t>(0 - static_cast<uint64_t>(M[A][K]));
          break;
        default: { // swap two rows
          unsigned B = static_cast<unsigned>(R.below(Size));
          if (B == A)
            B = (B + 1) % Size;
          std::swap(M[A], M[B]);
          break;
        }
        }
      }
      std::string L = "unimodular";
      for (unsigned Row = 0; Row < Size; ++Row) {
        if (Row)
          L += " /";
        for (unsigned Col = 0; Col < Size; ++Col)
          L += " " + std::to_string(M[Row][Col]);
      }
      Lines.push_back(std::move(L));
      return Size;
    }
    }
  }
}

/// Rewrites Lines[Idx] into a directive guaranteed to fail parsing,
/// independent of nest size except where SizeAt provides it.
void corruptLine(Rng &R, std::vector<std::string> &Lines, unsigned Idx,
                 unsigned SizeAt) {
  switch (R.below(5)) {
  case 0: // unknown directive name
    Lines[Idx] = "frobnicate 1 2";
    break;
  case 1: // position past the end of the nest
    Lines[Idx] = "reverse " + std::to_string(SizeAt + 7);
    break;
  case 2: // 0-based position (the language is 1-based)
    Lines[Idx] = "reverse 0";
    break;
  case 3: // arity error: interchange needs two positions
    Lines[Idx] = "interchange 1";
    break;
  default: // non-square unimodular matrix
    Lines[Idx] = "unimodular 1 2 / 3";
    break;
  }
}

} // namespace

GeneratedScript irlt::fuzz::generateScript(Rng &R, unsigned InitialLoops,
                                           const ScriptGenOptions &Opts) {
  GeneratedScript S;
  unsigned MaxSteps = Opts.MaxSteps ? Opts.MaxSteps : 1;
  unsigned Steps = 1 + static_cast<unsigned>(R.below(MaxSteps));
  unsigned Size = InitialLoops;
  std::vector<unsigned> SizeAtLine;
  for (unsigned K = 0; K < Steps; ++K) {
    SizeAtLine.push_back(Size);
    Size = emitDirective(R, Size, Opts, S.Lines);
  }
  unsigned Corrupt =
      std::min<unsigned>(Opts.CorruptLines,
                         static_cast<unsigned>(S.Lines.size()));
  // Corrupt distinct lines, lowest first, so SizeAtLine stays accurate
  // for every corrupted position.
  std::vector<unsigned> Idx(S.Lines.size());
  for (unsigned K = 0; K < Idx.size(); ++K)
    Idx[K] = K;
  for (unsigned K = static_cast<unsigned>(Idx.size()); K > 1; --K)
    std::swap(Idx[K - 1], Idx[R.below(K)]);
  for (unsigned K = 0; K < Corrupt; ++K)
    corruptLine(R, S.Lines, Idx[K], SizeAtLine[Idx[K]]);
  S.CorruptedLines = Corrupt;
  return S;
}

std::string irlt::fuzz::joinScript(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}
