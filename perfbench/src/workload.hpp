// The benchmark's client side: closed-loop sweep producers and Explorer
// readers, and the open-loop live writer. Every client records one
// OpRecord per operation; main.cpp assigns the records to
// measurement phases and derives the metrics from them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "provml/json/value.hpp"
#include "provml/net/client.hpp"
#include "stats.hpp"

namespace perfbench {

namespace json = provml::json;
namespace net = provml::net;

enum class Workload { kSweepIngest, kExploreRead, kLiveMixed };

/// Experiment cohorts of the preload. A drain reads one cohort's (run,
/// input) pairs: 25 runs x 40 inputs = 1000 rows, 20 pages. Longer drains
/// overlap more of live_mixed's PUTs (one per 100 ms) and restart more.
inline constexpr std::size_t kCohorts = 16;
inline constexpr std::size_t kPageSize = 50;
inline constexpr std::uint32_t kMaxDrainRestarts = 8;
/// live_mixed PUTs per second: an assumed rate, about a third of the PUT
/// capacity sweep_ingest measures, so the writer is not the bottleneck.
inline constexpr double kWriterRate = 10.0;

/// Zipf ranks below this are the hot set, read through the cacheable
/// routes (one-shot query POSTs and document GETs, 5 keys per run); the
/// tail is read through the uncacheable cursor envelope. The hot set's
/// keys plus the 16 drain-oracle queries (241) stay below the 256-entry
/// response cache on purpose: at this commit evicting a cache entry
/// erases the wrong map key (YProvHttpApp::handle never sets
/// CacheEntry::key), and the next lookup of the evicted key reads freed
/// memory.
inline constexpr std::size_t kHotRuns = 45;

/// Operation classes. kRun and kDrain are composite (a run ends with its
/// PUT, a drain is a sequence of pages); the others are one request each.
enum Cls : std::uint8_t {
  kRun, kPut, kLineage, kMatch, kGet, kRevalidate, kPage, kDrain, kClsCount
};

[[nodiscard]] inline bool is_read_request(Cls c) {
  return c == kLineage || c == kMatch || c == kGet || c == kRevalidate || c == kPage;
}

struct OpRecord {
  Cls cls = kRun;
  bool ok = false;
  int phase = 0;              ///< measurement phase when the op started
  std::int64_t start_ns = 0;  ///< open-loop PUTs: the scheduled send time
  std::int64_t end_ns = 0;
  std::int64_t late_ns = 0;   ///< open-loop PUTs: actual send - scheduled
  std::uint64_t bytes = 0;    ///< decoded response body (reads), body sent (PUTs)
  std::uint32_t restarts = 0; ///< drains: 410 restarts
  std::uint32_t rows = 0;     ///< drains: rows delivered
};

/// Per-run facts of the write path, for the storage/prov/json layers.
/// The store fields are filled by check_run_stores after the window.
struct RunRecord {
  int phase = 0;
  std::int64_t end_ns = 0;
  std::uint64_t samples = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t prov_bytes = 0;
  std::uint64_t store_files = 0;
  std::uint64_t elements = 0;
  std::string run_dir;     ///< everything the run wrote; removed by the check
  std::string store_path;  ///< empty when the run failed before finishing
  std::string prov_path;
};

/// What one client thread recorded. Owned by that thread until it is
/// joined.
struct ClientLog {
  std::vector<OpRecord> ops;
  std::vector<RunRecord> runs;
  std::vector<std::pair<std::string, std::uint64_t>> acked;  ///< document, body hash
  LogTiming log_timing;  ///< Run::log_metric timings of traced runs
  std::vector<std::string> errors;

  void error(std::string message) {
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

/// Oracle answers for one preloaded run document.
struct RunOracle {
  std::vector<std::string> lineage;                  ///< sorted upstream ids
  std::array<json::Array, kMatchKinds> match_rows;   ///< brute-force tables
  std::uint64_t get_hash = 0;                        ///< hash of the served body
};

/// One drain query's oracle: row count from the local documents, and the
/// server's one-shot table hashed in order and as a sorted multiset.
struct DrainOracle {
  std::string query;
  std::uint64_t rows = 0;
  std::uint64_t ordered_hash = 0;
  std::uint64_t sorted_hash = 0;
};

/// State shared read-only by the clients, plus the atomics that steer
/// them.
struct Context {
  Workload workload = Workload::kSweepIngest;
  std::uint64_t seed = 0;
  std::uint16_t port = 0;
  std::string scratch;
  // explore_read / live_mixed
  std::vector<std::string> preload_names;
  std::vector<RunOracle> expected;
  std::array<DrainOracle, kCohorts> drains;
  std::unique_ptr<ZipfSampler> zipf;
  // live_mixed writer: pre-generated documents and the schedule origin
  std::vector<std::pair<std::string, std::string>> writer_docs;  ///< name, body
  std::int64_t writer_origin_ns = 0;
  // steering
  std::atomic<std::uint64_t> next_run{0};
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
};

[[nodiscard]] std::uint64_t hash_bytes(const std::string& bytes);
/// Order-sensitive and order-insensitive hashes of serialized rows.
[[nodiscard]] std::uint64_t ordered_rows_hash(const std::vector<std::string>& rows);
[[nodiscard]] std::uint64_t sorted_rows_hash(std::vector<std::string> rows);

/// Runs `work(thread)` on `threads` threads and joins them.
template <typename Work>
void parallel(std::size_t threads, Work work) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work, t);
  for (std::thread& thread : pool) thread.join();
}

void sweep_producer(Context& ctx, std::size_t thread, ClientLog& log);
void explorer_reader(Context& ctx, std::size_t thread, ClientLog& log);
void live_writer(Context& ctx, ClientLog& log);

struct StoreFailures {
  std::uint64_t count = 0;
  std::vector<std::string> errors;  ///< the first few
};

/// Reads back every sweep run's Zarr store on `threads` threads, sizes it
/// into its RunRecord and removes the run's files. Runs after the window,
/// so the producers' measured loop holds only the pipeline.
[[nodiscard]] StoreFailures check_run_stores(std::vector<ClientLog>& logs, std::size_t threads);

}  // namespace perfbench
