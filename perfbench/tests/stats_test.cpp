// Tests of the benchmark's statistics helper: nearest-rank percentiles,
// the publish rule, failure ratios, and wall-clock throughput.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankOnKnownInputs) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 50).value(), 50.0);
  EXPECT_EQ(percentile_sorted(v, 90).value(), 90.0);
  EXPECT_EQ(percentile_sorted(v, 25).value(), 25.0);
  EXPECT_EQ(percentile_sorted(v, 0.5).value(), 1.0);  // rank rounds up to 1

  const std::vector<double> w = one_to(1000);
  EXPECT_EQ(percentile_sorted(w, 99).value(), 990.0);
  EXPECT_EQ(percentile_sorted(w, 50).value(), 500.0);

  // Nearest rank always returns a sample, never an interpolation.
  const std::vector<double> odd = {1.0, 2.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0,
                                   18.0, 19.0, 20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0,
                                   28.0, 29.0};
  EXPECT_EQ(percentile_sorted(odd, 10).value(), 10.0);
}

TEST(Percentile, SamplesClassSortsBeforeRanking) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_EQ(s.percentile(50).value(), 50.0);
  s.add(1000.0);  // unsorted again after an add
  EXPECT_EQ(s.percentile(50).value(), 51.0);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  // p99 of 999 samples: rank 990, 9 beyond -> refused; 1000 -> 10 beyond.
  EXPECT_FALSE(percentile_sorted(one_to(999), 99).has_value());
  EXPECT_TRUE(percentile_sorted(one_to(1000), 99).has_value());
  // p90 needs 100 samples.
  EXPECT_FALSE(percentile_sorted(one_to(99), 90).has_value());
  EXPECT_TRUE(percentile_sorted(one_to(100), 90).has_value());
  // A median needs 20.
  EXPECT_FALSE(percentile_sorted(one_to(19), 50).has_value());
  EXPECT_TRUE(percentile_sorted(one_to(20), 50).has_value());
  EXPECT_FALSE(percentile_sorted({}, 50).has_value());
}

TEST(OpCountTest, FailuresCountAgainstAttempts) {
  OpCount c;
  EXPECT_EQ(c.failed_ratio(), 0.0);
  for (int i = 0; i < 8; ++i) c.record(true);
  c.record(false);
  c.record(false);
  EXPECT_EQ(c.attempted, 10u);
  EXPECT_EQ(c.failed, 2u);
  EXPECT_DOUBLE_EQ(c.failed_ratio(), 0.2);

  OpCount other;
  other.record(false);
  c.merge(other);
  EXPECT_EQ(c.attempted, 11u);
  EXPECT_EQ(c.failed, 3u);
}

TEST(Median, SmallVectors) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// A fake threaded layer: `threads` workers each complete an item every
// 2 ms of wall time while using almost no CPU. Its throughput must come
// from the wall clock. Dividing by the coordinating thread's CPU time
// (the mistake a CPU-timed multi-threaded microbenchmark makes) would
// report a rate orders of magnitude too high.
TEST(WallRate, ThreadedLayerThroughputUsesWallTime) {
  constexpr int kThreads = 4;
  constexpr int kItemsPerThread = 50;
  constexpr auto kItemTime = std::chrono::milliseconds(2);
  std::atomic<int> done{0};

  const double cpu_start = thread_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kItemsPerThread; ++i) {
        std::this_thread::sleep_for(kItemTime);
        ++done;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();
  const double cpu_used = thread_cpu_seconds() - cpu_start;

  const double rate = wall_rate(static_cast<std::uint64_t>(done.load()), end - start);
  // Ideal: 4 threads / 2 ms = 2000 items/s; sleeps only overshoot, so the
  // wall rate is at most that, and well above a tenth of it.
  EXPECT_LE(rate, 2000.0 * 1.05);
  EXPECT_GE(rate, 200.0);
  const double cpu_rate = static_cast<double>(done.load()) / std::max(cpu_used, 1e-9);
  EXPECT_GT(cpu_rate, 5.0 * rate) << "the main thread barely used CPU while waiting";

  EXPECT_EQ(wall_rate(10, std::chrono::nanoseconds(0)), 0.0);
}

}  // namespace
}  // namespace perfbench
