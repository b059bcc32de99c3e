// Statistics helper for the end-to-end benchmark: nearest-rank
// percentiles that refuse to publish a tail without enough samples behind
// it, failure ratios counted against attempts, and throughput computed
// from wall-clock time only.
//
// The publish rule: a percentile is reported only when at least
// kMinBeyond samples lie strictly beyond it, so p99 needs >= 1000 samples
// and p90 needs >= 100. A tail estimated from a handful of samples moves
// by whole samples from run to run and cannot carry a regression bound.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least p% of the samples are <= it, i.e. sorted[ceil(p/100
/// * n) - 1]. Returns nullopt when fewer than kMinBeyond samples lie
/// beyond that rank, or when `sorted` is empty.
[[nodiscard]] inline std::optional<double> percentile_sorted(const std::vector<double>& sorted,
                                                             double p) {
  const std::size_t n = sorted.size();
  if (n == 0 || p <= 0.0 || p > 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// A latency sample set; values in whatever unit the caller records.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  [[nodiscard]] std::optional<double> percentile(double p) {
    sort();
    return percentile_sorted(values_, p);
  }

 private:
  void sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Operations attempted and failed. A failure is any operation whose
/// outcome was wrong: a non-2xx reply, a transport error, a result that
/// disagrees with the oracle.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  [[nodiscard]] double failed_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// Completed items per second of steady_clock wall time. Deliberately
/// takes no CPU-time input: a multi-threaded layer's throughput is what
/// the caller observes on the wall clock, never what one thread's CPU
/// clock saw.
[[nodiscard]] inline double wall_rate(std::uint64_t items, std::chrono::nanoseconds wall) {
  const double seconds = std::chrono::duration<double>(wall).count();
  return seconds <= 0.0 ? 0.0 : static_cast<double>(items) / seconds;
}

/// Median of a small vector (used for repeated set-up timings).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
