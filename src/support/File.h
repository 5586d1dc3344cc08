//===- support/File.h - Whole-file reads and writes -------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader and the one writer of whole files: every export (the
/// PARCS_* reports, flight dumps, sweeps, fitted models, baselines,
/// generated headers) is written, and every input file read, through
/// these two calls.  Their errors are the text the tools print.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_FILE_H
#define PARCS_SUPPORT_FILE_H

#include "support/Error.h"

#include <string>
#include <string_view>

namespace parcs {

/// The bytes of the file at \p Path; fails with "cannot open <Path>" (or
/// "cannot read <Path>").
ErrorOr<std::string> readFile(const std::string &Path);

/// Replaces the file at \p Path with \p Body.  Returns an empty Error on
/// success, else "cannot write <Path>".
Error writeFile(const std::string &Path, std::string_view Body);

} // namespace parcs

#endif // PARCS_SUPPORT_FILE_H
