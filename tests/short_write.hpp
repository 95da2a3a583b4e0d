/// \file short_write.hpp
/// \brief Forcing a short write under a sealed-file save, for the tests that
///        pin "a failed save throws its named error and leaves no `.tmp`".
#pragma once

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace prime::testing_util {

/// \brief Run \p save with this process's file-size limit lowered to
///        \p bytes and SIGXFSZ ignored, so a write past the limit fails with
///        EFBIG instead of killing the process. Exits 0 after printing the
///        message to stderr (limit restored: the death test captures stderr
///        in a file) when \p save throws \p Error, 1 when it returns, 2 when
///        the limit cannot be set. Call it in a forked child: inside
///        EXPECT_EXIT.
template <typename Error, typename Save>
[[noreturn]] void save_past_file_size_limit(Save&& save, rlim_t bytes = 8) {
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  if (getrlimit(RLIMIT_FSIZE, &saved) != 0) std::_Exit(2);
  const rlimit lowered{bytes, saved.rlim_max};
  if (setrlimit(RLIMIT_FSIZE, &lowered) != 0) std::_Exit(2);
  try {
    save();
  } catch (const Error& e) {
    setrlimit(RLIMIT_FSIZE, &saved);
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(0);
  }
  std::_Exit(1);
}

}  // namespace prime::testing_util
