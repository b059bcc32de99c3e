// Seeded inputs of the end-to-end benchmark and the paper's write path
// that produces run documents from them.
//
// Everything the program under test sees is derived from the workload
// seed: which Fig. 3 grid cell a run simulates, its trainer seed, the
// step-level metric series it logs, the Zipf-ranked query keys, and the
// open-loop write schedule.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/prov/model.hpp"
#include "provml/sim/trainer.hpp"
#include "provml/testkit/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace prov = provml::prov;
namespace sim = provml::sim;
namespace testkit = provml::testkit;
using provml::Status;

/// Training-configuration inputs a run logs beside the trainer's own
/// settings, so a run document has the 40 input parameters of a typical
/// training config rather than only the 10 the simulator needs.
extern const std::array<std::string, 30> kHyperparameters;

/// One simulated training run to execute.
struct RunSpec {
  std::string name;        ///< run name; also the served document name
  std::string experiment;  ///< experiment entity name (the drain cohort)
  sim::TrainConfig train;
  int steps_per_epoch = 0;  ///< step-level samples per series per epoch
  std::uint64_t noise_seed = 0;
  std::array<double, 30> hyperparameters{};  ///< values of kHyperparameters
};

/// Number of runs in one pass over the Fig. 3 grid: 2 architectures x
/// 4 model sizes x 5 device counts.
inline constexpr std::uint64_t kGridCells = 40;

/// Step-level samples per series per epoch: a sweep run logs 2000..2400,
/// a document-only run (preload and live-writer documents, whose metric
/// stores are discarded) 40..48 — the same generator at 1/50 the volume.
enum class Volume { kSweep, kDocumentOnly };

/// The k-th run of the grid stream for `seed`: grid cell k % 40, seed
/// replica k / 40.
[[nodiscard]] RunSpec make_run_spec(std::uint64_t seed, std::uint64_t k, std::string name,
                                    std::string experiment, Volume volume);

/// The prov id of a run's checkpoint artifact, the lineage query anchor.
[[nodiscard]] std::string checkpoint_id(const std::string& run_name);

/// Per-call timing of Run::log_metric, filled only on traced runs.
struct LogTiming {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

struct RunOutput {
  Status status;
  prov::Document document;
  std::string body;           ///< compact PROV-JSON, the PUT body
  std::uint64_t samples = 0;  ///< metric samples logged
  std::string store_path;     ///< the run's Zarr store directory
  std::string prov_path;      ///< the PROV-JSON file finish() wrote
};

/// The paper's write path up to the upload: DdpTrainer::run with an
/// observer that logs each epoch's step-level series through a streaming
/// Zarr-backed core::Run, then Run::finish. Files land under `dir`.
/// Traced runs get spans core.open / sim.train / core.epoch_log /
/// core.finish under `parent`, and log_metric timings in `timing`.
[[nodiscard]] RunOutput execute_run(const RunSpec& spec, const std::string& dir,
                                    SpanId parent, LogTiming* timing);

struct StoreCheck {
  bool ok = false;  ///< the store read back with exactly the logged samples
  std::uint64_t store_bytes = 0;
  std::uint64_t prov_bytes = 0;
  std::uint64_t store_files = 0;
  std::string error;
};

/// Reads a finished run's Zarr store back, compares its sample count with
/// `samples`, and sizes the store and the PROV-JSON file on disk.
[[nodiscard]] StoreCheck check_store(const std::string& store_path, const std::string& prov_path,
                                     std::uint64_t samples);

/// Zipf(s) over n keys; rank r has weight 1/(r+1)^s, and ranks map to
/// keys through a seeded permutation so the hot set differs per seed.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed);
  /// A popularity rank; 0 is the hottest.
  [[nodiscard]] std::size_t sample_rank(testkit::Rng& rng) const;
  [[nodiscard]] std::size_t key(std::size_t rank) const { return key_of_rank_[rank]; }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> key_of_rank_;
};

// The Explorer's query texts.
[[nodiscard]] std::string lineage_query(const std::string& run_name);
inline constexpr int kMatchKinds = 3;
/// 0 property-anchored, 1 grouped aggregate, 2 ORDER BY ... LIMIT k.
[[nodiscard]] std::string match_query(int kind, const std::string& run_name);
/// Every (run, used input) pair of one experiment cohort.
[[nodiscard]] std::string drain_query(const std::string& experiment);

}  // namespace perfbench
