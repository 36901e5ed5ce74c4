//===- support/Fs.h - Small filesystem helpers ------------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal path/directory helpers for the campaign layer. Journals are
/// routinely pointed at paths like `out/campaigns/2026-08/dbcp.jsonl`;
/// `makeDirs` is the `mkdir -p` equivalent that creates every missing
/// component instead of only the last one, with a precise error message
/// when a component cannot be created.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SUPPORT_FS_H
#define DLF_SUPPORT_FS_H

#include <string>

namespace dlf {

/// Returns the directory component of \p Path ("" when the path has no
/// slash, "/" for entries directly under the root).
std::string parentDir(const std::string &Path);

/// Recursively creates \p Path and every missing ancestor (`mkdir -p`).
/// Existing directories are fine; an existing non-directory component, or a
/// failing mkdir, fails with \p Error naming the offending component and the
/// errno text. An empty \p Path is a no-op success.
bool makeDirs(const std::string &Path, std::string *Error = nullptr);

} // namespace dlf

#endif // DLF_SUPPORT_FS_H
