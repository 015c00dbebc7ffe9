//===- support/Bindings.h - Parameter binding lists ----------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line grammars for parameter bindings, `n=32,b=4`, shared by
/// every tool that takes them (--verify, --params, --bind), and for the
/// unsigned counts and sizes the tools' numeric options take.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_BINDINGS_H
#define IRLT_SUPPORT_BINDINGS_H

#include <cstdint>
#include <map>
#include <string>

namespace irlt {

/// Parses a comma-separated list of `name=value` items into \p Out (later
/// items overwrite earlier ones and existing entries). A value is an
/// optional '-' followed by decimal digits and must fit in int64 exactly:
/// no '+', no spaces, no empty items. \returns false on any malformed
/// item; \p Out may then hold the items before it. An empty spec is an
/// empty list.
bool parseBindings(const std::string &Spec,
                   std::map<std::string, int64_t> &Out);

/// Parses \p S as decimal digits only - no sign, no spaces, not empty -
/// whose value fits in uint64 exactly. \returns false (leaving \p Out
/// alone) otherwise.
bool parseU64(const std::string &S, uint64_t &Out);

} // namespace irlt

#endif // IRLT_SUPPORT_BINDINGS_H
