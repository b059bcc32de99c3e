#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numbers>
#include <numeric>
#include <system_error>

#include "provml/core/run.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/sim/models.hpp"
#include "provml/storage/zarr_store.hpp"

namespace perfbench {
namespace {

namespace core = provml::core;
namespace fs = std::filesystem;
namespace storage = provml::storage;

// Series names, built once: log_metric takes std::string references.
const std::string kLoss = "loss";
const std::string kLearningRate = "learning_rate";
const std::string kThroughput = "throughput";
const std::string kValLoss = "val_loss";
const std::string kTraining = core::contexts::kTraining;
const std::string kValidation = core::contexts::kValidation;

}  // namespace

const std::array<std::string, 30> kHyperparameters = {
    "optimizer_lr",     "optimizer_beta1",  "optimizer_beta2",   "optimizer_eps",
    "weight_decay",     "warmup_fraction",  "lr_min_ratio",      "grad_clip_norm",
    "grad_accum_steps", "label_smoothing",  "dropout",           "drop_path",
    "attn_dropout",     "mask_ratio",       "patch_size",        "image_size",
    "crop_scale_min",   "mixup_alpha",      "cutmix_alpha",      "color_jitter",
    "ema_decay",        "loss_scale_init",  "bf16_fraction",     "zero_stage",
    "bucket_cap_mb",    "prefetch_factor",  "loader_workers",    "eval_interval",
    "ckpt_interval",    "data_shuffle_seed"};

RunSpec make_run_spec(std::uint64_t seed, std::uint64_t k, std::string name,
                      std::string experiment, Volume volume) {
  testkit::Rng rng(testkit::Rng::mix(seed, k));
  const std::uint64_t cell = k % kGridCells;
  const sim::Architecture arch =
      cell < kGridCells / 2 ? sim::Architecture::kMae : sim::Architecture::kSwinV2;
  const std::vector<sim::ModelConfig> models = sim::scaling_study_models(arch);
  const std::vector<int> devices = sim::scaling_study_device_counts();
  const std::size_t within = cell % (kGridCells / 2);

  RunSpec spec;
  spec.name = std::move(name);
  spec.experiment = std::move(experiment);
  spec.train.model = models[within / devices.size()];
  spec.train.ddp.devices = devices[within % devices.size()];
  spec.train.epochs = 3;
  spec.train.seed = rng.next();
  spec.steps_per_epoch = 2000 + static_cast<int>(rng.below(401));
  if (volume == Volume::kDocumentOnly) spec.steps_per_epoch /= 50;
  spec.noise_seed = rng.next();
  for (double& value : spec.hyperparameters) value = std::round(rng.unit() * 1e4) / 1e4;
  return spec;
}

std::string checkpoint_id(const std::string& run_name) {
  return "ex:artifact/ckpt_" + run_name;
}

RunOutput execute_run(const RunSpec& spec, const std::string& dir, SpanId parent,
                      LogTiming* timing) {
  RunOutput out;
  core::RunOptions options;
  options.provenance_dir = dir;
  options.metric_store = "zarr";
  options.sync_mode = core::MetricSyncMode::kStream;
  options.collect_system_metrics = false;
  // Each step-level series flushes one chunk mid-run and seals the tail
  // at finish.
  options.flush_chunk_length = 4096;

  core::Experiment experiment(spec.experiment);
  core::Run* run = nullptr;
  {
    const ScopedSpan open("core.open", parent);
    run = &experiment.start_run(options, spec.name);
    run->log_param("architecture", sim::architecture_name(spec.train.model.arch));
    run->log_param("parameters", spec.train.model.parameters);
    run->log_param("devices", spec.train.ddp.devices);
    run->log_param("per_device_batch", spec.train.ddp.per_device_batch);
    run->log_param("trainer_seed", spec.train.seed);
    run->log_param("epochs", spec.train.epochs);
    run->log_param("steps_logged_per_epoch", spec.steps_per_epoch);
    run->log_param("dataset", spec.train.dataset.name);
    run->log_param("comm_overlap", spec.train.ddp.comm_overlap);
    run->log_param("walltime_limit_s", spec.train.walltime_limit_s);
    for (std::size_t h = 0; h < kHyperparameters.size(); ++h) {
      run->log_param(kHyperparameters[h], spec.hyperparameters[h]);
    }
  }

  auto log = [&](const std::string& name, double value, std::int64_t step,
                 const std::string& context) {
    if (timing == nullptr) {
      run->log_metric(name, value, step, context);
      return;
    }
    const std::int64_t t0 = now_ns();
    run->log_metric(name, value, step, context);
    timing->ns += now_ns() - t0;
    ++timing->calls;
  };

  // Step-level series interpolated between the trainer's epoch reports,
  // with seeded noise: loss walks from the previous epoch's loss to this
  // one's, the learning rate follows a cosine schedule, and throughput
  // jitters around the epoch's samples per second.
  testkit::Rng noise(spec.noise_seed);
  const int steps = spec.steps_per_epoch;
  const double total_steps = static_cast<double>(steps) * spec.train.epochs;
  const double base_lr = 1e-4 * std::sqrt(spec.train.ddp.devices / 8.0);
  double prev_loss = spec.train.model.loss_after(1.0);
  std::int64_t prev_samples = 0;
  sim::TrainResult result;
  {
    const ScopedSpan train("sim.train", parent);
    const SpanId train_id = train.id();
    result = sim::DdpTrainer(spec.train).run([&](const sim::EpochReport& report) {
      const ScopedSpan burst("core.epoch_log", train_id);
      run->begin_epoch(kTraining, report.epoch);
      const double throughput =
          static_cast<double>(report.samples_seen - prev_samples) / report.epoch_time_s;
      for (int s = 0; s < steps; ++s) {
        const std::int64_t step = static_cast<std::int64_t>(report.epoch) * steps + s;
        const double frac = (s + 1.0) / steps;
        log(kLoss,
            prev_loss + (report.train_loss - prev_loss) * frac +
                0.002 * prev_loss * (noise.unit() - 0.5),
            step, kTraining);
        log(kLearningRate,
            base_lr * 0.5 *
                (1.0 + std::cos(std::numbers::pi * static_cast<double>(step) / total_steps)),
            step, kTraining);
        log(kThroughput, throughput * (1.0 + 0.02 * (noise.unit() - 0.5)), step, kTraining);
        out.samples += 3;
      }
      log(kValLoss, report.val_loss, report.epoch, kValidation);
      ++out.samples;
      run->end_epoch(kTraining, report.epoch);
      prev_loss = report.train_loss;
      prev_samples = report.samples_seen;
    });
  }
  run->log_artifact("ckpt_" + spec.name, "ckpt/" + spec.name + ".pt", core::IoRole::kOutput,
                    kTraining);
  run->log_param("final_loss", result.final_loss, core::IoRole::kOutput);
  {
    const ScopedSpan finish("core.finish", parent);
    out.status = run->finish();
  }
  out.store_path = run->metric_store_path();
  out.prov_path = run->provenance_path();
  if (out.status.ok()) {
    const ScopedSpan encode("prov.encode", parent);
    out.document = run->document();
    out.body = prov::to_prov_json_string(out.document, /*pretty=*/false);
  }
  return out;
}

StoreCheck check_store(const std::string& store_path, const std::string& prov_path,
                       std::uint64_t samples) {
  StoreCheck check;
  const storage::ZarrMetricStore store;
  provml::Expected<storage::MetricSet> metrics = store.read(store_path);
  if (!metrics.ok()) {
    check.error = "zarr read-back failed: " + metrics.error().to_string();
    return check;
  }
  if (metrics.value().total_samples() != samples) {
    check.error = "zarr read-back has " + std::to_string(metrics.value().total_samples()) +
                  " samples, logged " + std::to_string(samples);
    return check;
  }
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(store_path, ec)) {
    if (!entry.is_regular_file()) continue;
    ++check.store_files;
    check.store_bytes += entry.file_size();
  }
  check.prov_bytes = fs::file_size(prov_path, ec);
  if (ec) {
    check.error = "cannot size " + prov_path + ": " + ec.message();
    return check;
  }
  check.ok = true;
  return check;
}

ZipfSampler::ZipfSampler(std::size_t n, double s, std::uint64_t seed)
    : cdf_(n), key_of_rank_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(key_of_rank_.begin(), key_of_rank_.end(), std::size_t{0});
  testkit::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(key_of_rank_[i - 1], key_of_rank_[rng.below(i)]);
  }
}

std::size_t ZipfSampler::sample_rank(testkit::Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::string lineage_query(const std::string& run_name) {
  return "MATCH (c:Entity {prov_id: \"" + checkpoint_id(run_name) +
         "\"})-[*1..]->(x) RETURN x";
}

std::string match_query(int kind, const std::string& run_name) {
  const std::string anchor = "MATCH (r:Activity {prov_id: \"ex:" + run_name + "\"})";
  switch (kind) {
    case 0:
      return anchor + "<-[:wasInformedBy]-(c:Activity) RETURN c";
    case 1:
      return anchor +
             "<-[:wasInformedBy]-(c:Activity)<-[:wasGeneratedBy]-(m:Entity) "
             "RETURN c, count(m)";
    default:
      return anchor + "-[:used]->(p:Entity) RETURN p ORDER BY p.provml:name DESC LIMIT 3";
  }
}

std::string drain_query(const std::string& experiment) {
  return "MATCH (e:Entity {provml:name: \"" + experiment +
         "\"})<-[:wasStartedBy]-(r:Activity)-[:used]->(p:Entity) RETURN r, p";
}

}  // namespace perfbench
