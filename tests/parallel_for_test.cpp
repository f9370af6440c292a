#include "sim/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace splicer::sim {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kN = 37;
  for (const std::size_t threads : {0u, 1u, 4u, 64u}) {  // 64 > kN
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(threads, kN, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    parallel_for(threads, 0,
                 [](std::size_t) { FAIL() << "body must not run"; });
  }
}

TEST(ParallelFor, LowestFailingIndexIsRethrownAfterEveryIndexRuns) {
  constexpr std::size_t kN = 64;
  for (const std::size_t threads : {1u, 4u, 16u}) {
    std::vector<std::atomic<int>> hits(kN);
    try {
      parallel_for(threads, kN, [&hits](std::size_t i) {
        ++hits[i];
        if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception, threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "7") << "threads=" << threads;
    }
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 20, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace splicer::sim
