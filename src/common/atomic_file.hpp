/// \file atomic_file.hpp
/// \brief Crash-safe file replacement shared by the sealed formats (`.ckpt`,
///        `.fsum`, `.qpol`): serialise into `path.tmp`, then rename over
///        `path`, so a reader only ever sees the previous file or the new one.
#pragma once

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

namespace prime::common {

/// \brief Run \p write on a stream to `path.tmp` and rename the result over
///        \p path. Failures throw \p Error with a message prefixed by
///        \p what that names the file; \p write's own exceptions pass
///        through. On every failure after the open, `path.tmp` is removed,
///        so a failed write never leaves a stale temporary behind.
template <typename Error, typename Write>
void save_file_atomically(const std::string& path, const std::string& what,
                          Write&& write) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw Error(what + ": cannot open '" + tmp +
                "' for writing (does the parent directory exist?)");
  }
  try {
    write(out);
    out.close();
    if (!out) throw Error(what + ": closing '" + tmp + "' failed");
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(what + ": cannot rename '" + tmp + "' over '" + path + "'");
  }
}

}  // namespace prime::common
