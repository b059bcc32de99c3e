#include "provml/sim/trainer.hpp"

#include <algorithm>
#include <cmath>

namespace provml::sim {

TrainResult DdpTrainer::run(const EpochObserver& observer) const {
  const DdpCostModel cost(config_.cluster, config_.model, config_.dataset, config_.ddp);
  const double step_time = cost.step_time_s();
  const std::int64_t steps_per_epoch = cost.steps_per_epoch();
  const double epoch_time = step_time * static_cast<double>(steps_per_epoch);
  const double utilization = cost.device_utilization();
  const double power = config_.cluster.power_draw_w(config_.ddp.devices, utilization);

  std::mt19937_64 rng(config_.seed);
  // A unit normal scaled by sigma: std::normal_distribution requires a
  // positive stddev, and noise-free runs set sigma to 0. For sigma > 0
  // the draws and |x * sigma| equal normal_distribution(0, sigma)'s.
  std::normal_distribution<double> unit_normal(0.0, 1.0);
  const auto jitter = [&] { return std::abs(unit_normal(rng) * config_.loss_noise_sigma); };

  TrainResult result;
  result.step_time_s = step_time;
  result.device_utilization = utilization;
  result.mean_power_w = power;

  double clock_s = 0.0;
  double energy_j = 0.0;
  std::int64_t samples_seen = 0;
  double loss = config_.model.loss_after(1.0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    if (clock_s + epoch_time > config_.walltime_limit_s) {
      // The scheduler kills the job mid-epoch; account the partial slice.
      const double remaining = config_.walltime_limit_s - clock_s;
      if (remaining > 0) {
        const auto partial_steps = static_cast<std::int64_t>(remaining / step_time);
        samples_seen += partial_steps * config_.ddp.global_batch();
        clock_s = config_.walltime_limit_s;
        energy_j += remaining * power;
      }
      result.completed = false;
      result.epochs_finished = epoch;
      result.final_loss = config_.model.loss_after(static_cast<double>(samples_seen)) +
                          jitter();
      result.wall_time_s = clock_s;
      result.energy_j = energy_j;
      result.samples_seen = samples_seen;
      return result;
    }

    clock_s += epoch_time;
    energy_j += epoch_time * power;
    samples_seen += steps_per_epoch * config_.ddp.global_batch();
    loss = config_.model.loss_after(static_cast<double>(samples_seen)) +
           jitter();
    // Drawn unconditionally: observed and unobserved runs must stay
    // bit-identical under the same seed (reproducibility guarantee).
    const double val_jitter = jitter();

    if (observer) {
      EpochReport report;
      report.epoch = epoch;
      report.train_loss = loss;
      report.val_loss = loss * 1.05 + val_jitter;
      report.epoch_time_s = epoch_time;
      report.cumulative_time_s = clock_s;
      report.cumulative_energy_j = energy_j;
      report.samples_seen = samples_seen;
      observer(report);
    }
  }

  result.completed = true;
  result.epochs_finished = config_.epochs;
  result.final_loss = loss;
  result.wall_time_s = clock_s;
  result.energy_j = energy_j;
  result.samples_seen = samples_seen;
  return result;
}

TrainResult run_finetune(const TrainConfig& pretrain, const FinetuneConfig& finetune) {
  // Frozen backbone: the forward pass (~1/3 of train FLOPs) still covers
  // every layer, the backward only the head; gradient traffic shrinks to
  // the head's parameters.
  TrainConfig cfg = pretrain;
  cfg.dataset.samples = finetune.labeled_samples;
  cfg.epochs = finetune.epochs;
  cfg.ddp.flops_fraction = 1.0 / 3.0 + (2.0 / 3.0) * finetune.head_fraction;
  cfg.ddp.trainable_fraction = finetune.head_fraction;
  return DdpTrainer(cfg).run();
}

}  // namespace provml::sim
