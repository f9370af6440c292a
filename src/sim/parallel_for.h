#pragma once

// Index fan-out for the experiment harness.
//
// parallel_for(threads, n, body) runs body(i) once for every i in [0, n) on
// the calling thread plus `threads - 1` std::threads, which claim indices
// from one shared counter and are joined before it returns. threads == 0
// means one per hardware thread; threads == 1 runs inline in index order;
// no more threads than indices are started. `body` is called concurrently
// from several threads.
//
// Results are independent of the thread count as long as body(i) writes
// only its own slot and derives any seed from i, never from the thread that
// ran it. If bodies throw, every index still runs and the exception of the
// lowest failing index is rethrown, so the error does not depend on the
// thread count either.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace splicer::sim {

template <typename Body>
void parallel_for(std::size_t threads, std::size_t n, Body&& body) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;  // guarded by error_mutex
  std::exception_ptr error;     // guarded by error_mutex
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  {
    // jthread joins on destruction, also when starting a later one throws.
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace splicer::sim
