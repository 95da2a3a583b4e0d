/// \file thread_count.hpp
/// \brief Counting this process's threads, for the tests that pin "no
///        helper or writer thread outlives the run". A joined thread can
///        stay listed in /proc/self/task until the kernel reaps it, so a raw
///        before/after comparison is flaky: take the baseline with
///        settled_thread_count() and check with thread_count_settling_at().
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <system_error>
#include <thread>

namespace prime::testing_util {

/// Threads of this process (0 where /proc/self/task is unavailable).
inline std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

/// thread_count() once it reaches \p expected, or after a second. A joined
/// thread can linger in /proc/self/task until the kernel reaps it.
inline std::size_t thread_count_settling_at(std::size_t expected) {
  for (int i = 0; i < 1000 && thread_count() != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return thread_count();
}

/// thread_count() once two reads 5 ms apart agree: earlier tests' joined
/// threads must not count into a baseline.
inline std::size_t settled_thread_count() {
  std::size_t n = thread_count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t again = thread_count();
    if (again == n) break;
    n = again;
  }
  return n;
}

}  // namespace prime::testing_util
