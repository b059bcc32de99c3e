// Turning client records, server counters and spans into the published
// metrics: the end-to-end set (untraced phase) and the per-layer set
// (traced phase).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/wal/wal.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Public counters of the server's layers at one instant.
struct CounterSnapshot {
  std::int64_t at_ns = 0;
  net::ServerStats server;
  net::YProvHttpApp::Counters app;
  provml::wal::Stats wal;
};

/// One measurement window's client-side view.
struct Aggregate {
  std::chrono::nanoseconds wall{0};
  Samples cls_ms[kClsCount];
  Samples op_ms;       ///< closed-loop operations
  Samples late_ms;     ///< open-loop writer lateness
  OpCount count;
  std::uint64_t closed_ops = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t conditional_gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t drains = 0;
  std::uint64_t restarts = 0;
  std::uint64_t drain_rows = 0;
  std::uint64_t runs = 0;
  std::uint64_t samples = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t prov_bytes = 0;
  std::uint64_t store_files = 0;
  std::uint64_t elements = 0;

  [[nodiscard]] double throughput() const { return wall_rate(closed_ops, wall); }
};

/// Adds the counter growth from `from` to `to` into `sum` (and the
/// elapsed time into sum.at_ns).
void add_delta(CounterSnapshot& sum, const CounterSnapshot& from, const CounterSnapshot& to);

/// One measured slice: the records whose op started in `phase` and
/// completed by `end_ns` belong to it.
struct Window {
  int phase = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Collects the records of the given windows.
[[nodiscard]] Aggregate aggregate(const std::vector<ClientLog>& logs, Workload workload,
                                  const std::vector<Window>& windows);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics, every one defined on every workload: each
/// slice's throughput and percentiles, reported as the median over the
/// slices so a burst of outside load in a few slices does not move them.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(std::vector<Aggregate>& slices,
                                                     double setup_s, double peak_rss_mb);

/// The per-class end-to-end figures that apply to this workload, for
/// the human-readable report (percentiles that may not be published are
/// left out).
[[nodiscard]] std::vector<Metric> named_metrics(Aggregate& window, Workload workload);

/// Median self time (span minus its children) per span name, in ms: the
/// traced run's per-layer self-time table.
[[nodiscard]] std::vector<Metric> self_times(const std::vector<Span>& spans);

/// The per-layer metrics of the traced window, from its spans, its
/// summed counter deltas (`counters`, built with add_delta) and client
/// records; `untraced` gives trace.overhead and the e2e.* copies of
/// named_metrics, and `measured` (both kinds of slice) the writer's
/// lateness.
[[nodiscard]] std::vector<Metric> per_layer_metrics(Aggregate& traced, Aggregate& untraced,
                                                    Aggregate& measured,
                                                    const std::vector<Span>& spans,
                                                    const CounterSnapshot& counters,
                                                    const LogTiming& log_timing,
                                                    Workload workload);

}  // namespace perfbench
