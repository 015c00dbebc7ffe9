//===- support/FileIO.h - Whole-file reads -------------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads a whole file into a string, for the command-line tools that take
/// nest, script and corpus paths.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_FILEIO_H
#define IRLT_SUPPORT_FILEIO_H

#include <string>

namespace irlt {

/// Reads the file at \p Path byte for byte into \p Out. \returns false,
/// leaving \p Out alone, when the file cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

} // namespace irlt

#endif // IRLT_SUPPORT_FILEIO_H
