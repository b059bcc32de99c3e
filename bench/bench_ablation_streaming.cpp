// Ablation — the streaming write path. Does streaming (log_metric →
// flusher → zarr sink) cut finish() latency and peak RSS versus buffering
// every sample and serializing at finish()? Each configuration runs in a
// forked child so VmHWM measures that configuration's true process peak.
//
// Output is a plain table (like the figure benches); EXPERIMENTS.md
// records a reference run.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include "provml/core/run.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Process peak resident set in kB, from /proc/self/status (Linux).
long vmhwm_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

struct RunResult {
  double log_ms = 0;     ///< the training loop's logging time
  double finish_ms = 0;  ///< finish(): drain + seal (stream) or full write (batch)
  long peak_kb = 0;
};

/// Drives one run configuration to completion in the current process.
RunResult drive_run(provml::core::MetricSyncMode mode, std::size_t samples,
                    const std::string& prov_dir) {
  using namespace provml::core;
  RunOptions options;
  options.provenance_dir = prov_dir;
  options.metric_store = "zarr";
  options.sync_mode = mode;
  options.flush_chunk_length = 4096;  // = the zarr batch chunk: same layout
  Experiment exp("bench");
  Run& run = exp.start_run(options, "r");

  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(0.0, 0.01);
  RunResult result;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < samples; ++i) {
    const auto step = static_cast<std::int64_t>(i);
    run.log_metric("loss", 2.0 * std::exp(-1e-6 * static_cast<double>(i)) + noise(rng),
                   step);
    run.log_metric("throughput", 1500.0 + 40.0 * noise(rng), step, "TRAINING", "img/s");
  }
  result.log_ms = ms_since(t0);
  const auto t1 = Clock::now();
  if (!run.finish().ok()) std::fprintf(stderr, "finish failed\n");
  result.finish_ms = ms_since(t1);
  result.peak_kb = vmhwm_kb();
  return result;
}

/// Forks, runs `drive_run` in the child, and reports its numbers through a
/// pipe — so VmHWM (a high-water mark, unresettable in-process) is clean
/// per configuration.
RunResult forked_run(provml::core::MetricSyncMode mode, std::size_t samples,
                     const std::string& prov_dir) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const RunResult r = drive_run(mode, samples, prov_dir);
    ::dprintf(fds[1], "%f %f %ld\n", r.log_ms, r.finish_ms, r.peak_kb);
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  char buf[128] = {0};
  ssize_t got = 0, n = 0;
  while ((n = ::read(fds[0], buf + got, sizeof buf - 1 - got)) > 0) got += n;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  RunResult r;
  std::sscanf(buf, "%lf %lf %ld", &r.log_ms, &r.finish_ms, &r.peak_kb);
  return r;
}

}  // namespace

int main() {
  const fs::path root =
      fs::temp_directory_path() / ("provml_bench_stream_" + std::to_string(::getpid()));
  fs::create_directories(root);

  std::printf("Streaming write-path ablation (zarr store, chunk 4096)\n\n");

  std::printf("%-10s %-8s %12s %12s %12s\n", "samples", "mode", "log ms", "finish ms",
              "peak RSS MB");
  for (const std::size_t per_series : {100000ul, 500000ul}) {
    for (const auto mode : {provml::core::MetricSyncMode::kBatch,
                            provml::core::MetricSyncMode::kStream}) {
      const bool stream = mode == provml::core::MetricSyncMode::kStream;
      const std::string prov =
          (root / (std::string(stream ? "s" : "b") + std::to_string(per_series))).string();
      const RunResult r = forked_run(mode, per_series, prov);
      std::printf("%-10zu %-8s %12.1f %12.1f %12.1f\n", 2 * per_series,
                  stream ? "stream" : "batch", r.log_ms, r.finish_ms,
                  static_cast<double>(r.peak_kb) / 1024.0);
    }
  }

  fs::remove_all(root);
  return 0;
}
