//===- support/Bindings.cpp - Parameter binding lists --------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "support/Bindings.h"

#include <sstream>

using namespace irlt;

bool irlt::parseBindings(const std::string &Spec,
                         std::map<std::string, int64_t> &Out) {
  // Values are validated by hand: std::stoll throws on garbage and
  // accepts a leading '+' and whitespace.
  std::istringstream SS(Spec);
  std::string Item;
  while (std::getline(SS, Item, ',')) {
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size())
      return false;
    std::string Val = Item.substr(Eq + 1);
    bool Neg = Val[0] == '-';
    size_t P = Neg ? 1 : 0;
    if (P == Val.size())
      return false;
    uint64_t Mag = 0;
    const uint64_t Limit = UINT64_C(1) << 63; // |INT64_MIN|
    for (; P < Val.size(); ++P) {
      if (Val[P] < '0' || Val[P] > '9')
        return false;
      uint64_t D = static_cast<uint64_t>(Val[P] - '0');
      if (Mag > (Limit - D) / 10)
        return false;
      Mag = Mag * 10 + D;
    }
    if (!Neg && Mag == Limit)
      return false;
    Out[Item.substr(0, Eq)] =
        Neg ? (Mag == Limit ? INT64_MIN : -static_cast<int64_t>(Mag))
            : static_cast<int64_t>(Mag);
  }
  return true;
}

bool irlt::parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}
