// Table 1 — "Provenance file size comparison in normal and compressed
// formats": one run's metric payload serialized as (a) metrics embedded in
// PROV-JSON (the paper's Original_file.json), (b) the Zarr-like store, and
// (c) the NetCDF-like store; each measured raw and after general-purpose
// compression (LZSS container, standing in for gzip).
//
// Paper reference values: json 39.82 → 8.65 MB, zarr 2.74 → 2.14 MB,
// nc 2.35 → 2.30 MB. The expected *shape*: json is an order of magnitude
// larger than both binary formats and compresses well (~4-5x); the binary
// formats are close to each other; zarr gains a little from re-compression,
// nc almost nothing on already-delta-packed columns; moving metrics out of
// JSON saves >90%.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>

#include "provml/common/file_io.hpp"
#include "provml/common/strings.hpp"
#include "provml/compress/container.hpp"
#include "provml/storage/json_store.hpp"
#include "provml/storage/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace provml;

/// A realistic large training run: per-step loss/accuracy/lr plus sampled
/// system counters, mirroring what yProv4ML collects on a long job.
storage::MetricSet make_run_metrics(std::size_t steps) {
  storage::MetricSet set;
  std::mt19937_64 rng(2025);
  std::normal_distribution<double> noise(0.0, 0.01);

  storage::MetricSeries& loss = set.series("loss", "TRAINING");
  storage::MetricSeries& accuracy = set.series("accuracy", "TRAINING", "%");
  storage::MetricSeries& lr = set.series("learning_rate", "TRAINING");
  storage::MetricSeries& gpu_power = set.series("gpu_power", "SYSTEM", "W");
  storage::MetricSeries& gpu_util = set.series("gpu_utilization", "SYSTEM", "%");
  storage::MetricSeries& gpu_mem = set.series("gpu_memory_used", "SYSTEM", "GiB");
  storage::MetricSeries& cpu = set.series("cpu_utilization", "SYSTEM", "%");
  storage::MetricSeries& rss = set.series("process_rss", "SYSTEM", "MiB");
  storage::MetricSeries& energy = set.series("energy", "SYSTEM", "J");
  storage::MetricSeries& val_loss = set.series("loss", "VALIDATION");

  double cumulative_energy = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const auto step = static_cast<std::int64_t>(i);
    const std::int64_t ts = 1735689600000 + step * 250;
    const double progress = static_cast<double>(i) / static_cast<double>(steps);
    loss.append(step, ts, 2.2 * std::exp(-3.0 * progress) + 0.35 + noise(rng));
    accuracy.append(step, ts, 100.0 * (1.0 - std::exp(-4.0 * progress)) + noise(rng));
    lr.append(step, ts, 3e-4 * 0.5 * (1.0 + std::cos(3.14159 * progress)));
    const double power = 250.0 + 25.0 * noise(rng);
    gpu_power.append(step, ts, power);
    gpu_util.append(step, ts, 92.0 + 40.0 * noise(rng));
    gpu_mem.append(step, ts, 48.5 + noise(rng));
    cpu.append(step, ts, 35.0 + 80.0 * noise(rng));
    rss.append(step, ts, 12000.0 + static_cast<double>(i) * 0.01);
    cumulative_energy += power * 0.25;
    energy.append(step, ts, cumulative_energy);
    if (i % 10 == 0) {
      val_loss.append(step, ts, 2.3 * std::exp(-3.0 * progress) + 0.4);
    }
  }
  return set;
}

/// Compresses a file or every file of a directory; returns total bytes.
/// Like gzip's stored-block fallback, a file that would *grow* under the
/// dictionary coder is counted at raw size plus a small frame header.
std::uint64_t compressed_size(const std::string& path) {
  std::uint64_t total = 0;
  auto pack_one = [&total](const std::string& file) {
    const auto data = io::read_file(file);
    if (!data.ok()) return;
    const auto packed = compress::pack(data.value(), "lzss");
    constexpr std::uint64_t kStoredFrame = 18;  // gzip header+trailer equivalent
    if (packed.ok()) {
      total += std::min<std::uint64_t>(packed.value().size(),
                                       data.value().size() + kStoredFrame);
    }
  };
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::recursive_directory_iterator(path)) {
      if (entry.is_regular_file()) pack_one(entry.path().string());
    }
  } else {
    pack_one(path);
  }
  return total;
}

}  // namespace

int main() {
  const fs::path dir = fs::temp_directory_path() / "provml_table1";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // ~50k steps × 10 series ≈ the paper's tens-of-MB JSON file.
  const storage::MetricSet metrics = make_run_metrics(50'000);

  std::printf("Table 1: provenance metric payload, normal vs compressed\n");
  std::printf("(paper: json 39.82->8.65 MB, zarr 2.74->2.14 MB, nc 2.35->2.30 MB)\n\n");
  std::printf("%-24s %14s %17s\n", "File", "Normal Size", "Compressed Size");

  std::uint64_t json_size = 0;
  std::uint64_t best_binary = ~std::uint64_t{0};
  for (const auto& [fmt, label] :
       {std::pair{"json", "Original_file.json"}, std::pair{"zarr", "Converted_to.zarr"},
        std::pair{"netcdf", "Converted_to.nc"}}) {
    const auto store = storage::StoreRegistry::global().create(fmt);
    const std::string path = (dir / (std::string("metrics") + store->path_suffix())).string();
    if (provml::Status s = store->write(metrics, path); !s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.error().to_string().c_str());
      return 1;
    }
    const std::uint64_t normal = store->size_on_disk(path).take();
    const std::uint64_t packed = compressed_size(path);
    std::printf("%-24s %14s %17s\n", label, strings::human_bytes(normal).c_str(),
                strings::human_bytes(packed).c_str());
    if (std::string(fmt) == "json") json_size = normal;
    else best_binary = std::min(best_binary, normal);
  }

  const double gain = 100.0 * (1.0 - static_cast<double>(best_binary) /
                                         static_cast<double>(json_size));
  std::printf("\nmoving metrics out of JSON saves %.1f%% (paper reports >90%%)\n", gain);

  fs::remove_all(dir);
  return gain > 80.0 ? 0 : 1;
}
