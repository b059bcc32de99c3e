// Set-up of a benchmark run: generating the seeded inputs and their
// oracle answers, and bringing up the server the way `yprov serve`
// does with its defaults.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "workload.hpp"

namespace perfbench {

/// Run documents preloaded into the store before measurement: 16 cohorts
/// of 25 runs, each run using 40 logged inputs, so every drain is 1000
/// rows.
inline constexpr std::size_t kPreloadRuns = 400;

struct Inputs {
  std::vector<std::pair<std::string, prov::Document>> preload;  ///< name, document
  std::vector<RunOracle> oracles;                               ///< per preload doc
  std::array<std::uint64_t, kCohorts> cohort_rows{};            ///< drain row counts
  std::vector<std::pair<std::string, std::string>> writer_docs; ///< name, PUT body
};

/// Cohort (experiment) name of preload document i.
[[nodiscard]] std::string cohort_name(std::size_t cohort);

/// Runs the write path for every preload document (and `writer_count`
/// live-writer documents) on `threads` threads under `scratch`, then
/// computes each preload document's oracle answers: lineage through
/// explorer::upstream, MATCH tables through the brute-force evaluator, and
/// the body the service will serve back.
[[nodiscard]] bool generate_inputs(std::uint64_t seed, const std::string& scratch,
                                   std::size_t writer_count, std::size_t threads,
                                   Inputs& inputs, std::string& error);

/// Saves the preload as a WAL-store snapshot at `dir`; each set-up opens a
/// copy of it.
[[nodiscard]] Status write_template_store(const Inputs& inputs, const std::string& dir);

/// The server under test: YProvHttpApp (cache 256, pmlc >= 1 KiB) with a
/// WAL attached at `data_dir` (fsync every_write, 1 shard), behind an
/// HttpServer with 4 workers and the server-stats provider wired — the
/// `yprov serve --data-dir DIR --fsync every_write` defaults. The handler
/// is wrapped to time each YProvHttpApp::handle call on traced runs, and
/// the access log goes to a counting sink instead of stdout.
class BenchServer {
 public:
  [[nodiscard]] static provml::Expected<std::unique_ptr<BenchServer>> start(
      const std::string& data_dir);
  ~BenchServer();
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;
  BenchServer(BenchServer&&) = delete;
  BenchServer& operator=(BenchServer&&) = delete;

  [[nodiscard]] net::YProvHttpApp& app() { return *app_; }
  [[nodiscard]] net::HttpServer& http() { return *http_; }

  /// Stops serving and closes the WAL (the store is then safe to load).
  void stop();

 private:
  BenchServer() = default;

  struct AccessLog {
    std::mutex mutex;
    std::uint64_t lines = 0;
    std::uint64_t bytes = 0;
  };

  AccessLog access_log_;
  std::unique_ptr<net::YProvHttpApp> app_;
  std::unique_ptr<net::HttpServer> http_;
};

}  // namespace perfbench
