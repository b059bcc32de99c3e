#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>

#include "provml/common/thread_pool.hpp"
#include "provml/sim/cluster.hpp"
#include "provml/sim/ddp.hpp"
#include "provml/sim/models.hpp"
#include "provml/sim/sweep.hpp"
#include "provml/sim/trainer.hpp"

namespace provml::sim {
namespace {

TrainConfig small_config(Architecture arch = Architecture::kMae,
                         std::int64_t params = 100'000'000, int devices = 8) {
  TrainConfig cfg;
  cfg.model = make_model(arch, params);
  cfg.ddp.devices = devices;
  cfg.epochs = 5;
  return cfg;
}

// ----------------------------------------------------------------- cluster

TEST(Cluster, FrontierDefaults) {
  const ClusterSpec c = ClusterSpec::frontier();
  EXPECT_EQ(c.node.devices_per_node, 8);
  EXPECT_EQ(c.total_nodes, 9402);
  EXPECT_GT(c.device.effective_flops(), 1e13);
  EXPECT_LT(c.device.effective_flops(), c.device.peak_flops);
}

TEST(Cluster, NodesForCeilDivision) {
  const ClusterSpec c = ClusterSpec::frontier();
  EXPECT_EQ(c.nodes_for(8), 1);
  EXPECT_EQ(c.nodes_for(9), 2);
  EXPECT_EQ(c.nodes_for(128), 16);
  EXPECT_EQ(c.nodes_for(1), 1);
}

TEST(Cluster, PowerScalesWithDevicesAndUtilization) {
  const ClusterSpec c = ClusterSpec::frontier();
  EXPECT_GT(c.power_draw_w(8, 1.0), c.power_draw_w(8, 0.0));
  EXPECT_GT(c.power_draw_w(16, 0.5), c.power_draw_w(8, 0.5));
  // 8 devices idle: 8*90 + 1 node * 400 = 1120 W.
  EXPECT_DOUBLE_EQ(c.power_draw_w(8, 0.0), 8 * 90.0 + 400.0);
}

TEST(Cluster, RingBandwidthDropsAcrossNodes) {
  const ClusterSpec c = ClusterSpec::frontier();
  EXPECT_GT(c.ring_bandwidth_bps(8), c.ring_bandwidth_bps(16));
}

// ------------------------------------------------------------------ models

TEST(Models, DatasetTokens) {
  const DatasetSpec d = DatasetSpec::modis();
  EXPECT_EQ(d.samples, 800'000);
  EXPECT_EQ(d.tokens_per_sample(), 64);  // (128/16)^2
}

TEST(Models, ScalingStudySizes) {
  const auto models = scaling_study_models(Architecture::kSwinV2);
  ASSERT_EQ(models.size(), 4u);
  EXPECT_EQ(models[0].parameters, 100'000'000);
  EXPECT_EQ(models[3].parameters, 1'400'000'000);
  EXPECT_EQ(models[0].name, "SwinT-V2-100M");
  EXPECT_EQ(models[3].name, "SwinT-V2-1.4B");
  EXPECT_EQ(scaling_study_device_counts(),
            (std::vector<int>{8, 16, 32, 64, 128}));
}

TEST(Models, MaeCheaperPerSampleThanSwin) {
  const DatasetSpec d = DatasetSpec::modis();
  const ModelConfig mae = make_model(Architecture::kMae, 600'000'000);
  const ModelConfig swin = make_model(Architecture::kSwinV2, 600'000'000);
  EXPECT_LT(mae.train_flops_per_sample(d), swin.train_flops_per_sample(d));
}

TEST(Models, FlopsScaleLinearlyWithParams) {
  const DatasetSpec d = DatasetSpec::modis();
  const ModelConfig small = make_model(Architecture::kMae, 100'000'000);
  const ModelConfig big = make_model(Architecture::kMae, 200'000'000);
  EXPECT_NEAR(big.train_flops_per_sample(d) / small.train_flops_per_sample(d), 2.0, 1e-9);
}

TEST(Models, LossDecreasesWithDataAndParams) {
  const ModelConfig m1 = make_model(Architecture::kSwinV2, 100'000'000);
  const ModelConfig m2 = make_model(Architecture::kSwinV2, 1'400'000'000);
  EXPECT_GT(m1.loss_after(1e5), m1.loss_after(1e7));
  EXPECT_GT(m1.loss_after(1e7), m2.loss_after(1e7));
}

TEST(Models, SwinBeatsMaeAtScale) {
  // The paper: "the newer SwinT-V2 architecture is performing much better
  // at scale". At 1.4B params and the full dataset ×10 epochs:
  const ModelConfig mae = make_model(Architecture::kMae, 1'400'000'000);
  const ModelConfig swin = make_model(Architecture::kSwinV2, 1'400'000'000);
  EXPECT_LT(swin.loss_after(8e6), mae.loss_after(8e6));
}

TEST(Models, GradientBytesFp32) {
  EXPECT_DOUBLE_EQ(make_model(Architecture::kMae, 1000).gradient_bytes(), 4000.0);
}

// --------------------------------------------------------------------- ddp

TEST(Ddp, ComputeTimeMatchesHandCalculation) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kSwinV2, 100'000'000);
  DdpConfig ddp;
  ddp.per_device_batch = 32;
  const DdpCostModel cost(cluster, model, data, ddp);
  const double expected =
      model.train_flops_per_sample(data) * 32 / cluster.device.effective_flops();
  EXPECT_NEAR(cost.compute_time_s(), expected, 1e-12);
}

TEST(Ddp, AllreduceGrowsWithModelSize) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  DdpConfig ddp;
  ddp.devices = 64;
  const DdpCostModel small(cluster, make_model(Architecture::kMae, 100'000'000), data, ddp);
  const DdpCostModel big(cluster, make_model(Architecture::kMae, 1'400'000'000), data, ddp);
  EXPECT_GT(big.allreduce_time_s(), small.allreduce_time_s());
}

TEST(Ddp, SingleDeviceHasNoCommunication) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  DdpConfig ddp;
  ddp.devices = 1;
  const DdpCostModel cost(cluster, make_model(Architecture::kMae, 100'000'000), data, ddp);
  EXPECT_DOUBLE_EQ(cost.allreduce_time_s(), 0.0);
  EXPECT_DOUBLE_EQ(cost.step_time_s(), cost.compute_time_s());
  EXPECT_DOUBLE_EQ(cost.device_utilization(), 1.0);
}

TEST(Ddp, OverlapHidesCommunication) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kSwinV2, 1'400'000'000);
  DdpConfig no_overlap;
  no_overlap.devices = 128;
  no_overlap.comm_overlap = 0.0;
  DdpConfig full_overlap = no_overlap;
  full_overlap.comm_overlap = 1.0;
  const DdpCostModel a(cluster, model, data, no_overlap);
  const DdpCostModel b(cluster, model, data, full_overlap);
  EXPECT_GT(a.step_time_s(), b.step_time_s());
}

TEST(Ddp, StepsPerEpochCeil) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  DatasetSpec data;
  data.samples = 1000;
  DdpConfig ddp;
  ddp.devices = 8;
  ddp.per_device_batch = 16;  // global 128 → ceil(1000/128) = 8
  const DdpCostModel cost(cluster, make_model(Architecture::kMae, 1'000'000), data, ddp);
  EXPECT_EQ(cost.steps_per_epoch(), 8);
}

TEST(Ddp, UtilizationDropsWhenCommunicationBound) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kMae, 1'400'000'000);
  DdpConfig few;
  few.devices = 8;
  DdpConfig many = few;
  many.devices = 128;
  const DdpCostModel a(cluster, model, data, few);
  const DdpCostModel b(cluster, model, data, many);
  EXPECT_GT(a.device_utilization(), b.device_utilization());
}

TEST(Ddp, FinetuneKnobsReduceCost) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kSwinV2, 600'000'000);
  DdpConfig pretrain;
  pretrain.devices = 32;
  DdpConfig finetune = pretrain;
  finetune.flops_fraction = 0.35;
  finetune.trainable_fraction = 0.02;
  const DdpCostModel a(cluster, model, data, pretrain);
  const DdpCostModel b(cluster, model, data, finetune);
  EXPECT_LT(b.compute_time_s(), a.compute_time_s());
  EXPECT_LT(b.allreduce_time_s(), a.allreduce_time_s());
}


TEST(Ddp, DataLoadTimeMatchesGeometry) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();  // 128x128x6 fp32
  DdpConfig ddp;
  ddp.per_device_batch = 32;
  ddp.io_bandwidth_gbs = 2.0;
  const DdpCostModel cost(cluster, make_model(Architecture::kMae, 1'000'000), data, ddp);
  const double expected = 128.0 * 128 * 6 * 4 * 32 / 2e9;
  EXPECT_NEAR(cost.data_load_time_s(), expected, 1e-12);
}

TEST(Ddp, SlowStorageExposesLoadTime) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kMae, 100'000'000);
  DdpConfig fast;
  DdpConfig slow = fast;
  slow.io_bandwidth_gbs = 0.01;  // starved data loader
  const DdpCostModel a(cluster, model, data, fast);
  const DdpCostModel b(cluster, model, data, slow);
  EXPECT_GT(b.step_time_s(), a.step_time_s());
  // With generous prefetch the fast path hides loading entirely.
  EXPECT_DOUBLE_EQ(a.step_time_s(),
                   a.compute_time_s() +
                       std::max(0.0, a.allreduce_time_s() -
                                         0.6 * a.compute_time_s()));
}

TEST(Ddp, CheckpointingAmortizesPerStep) {
  const ClusterSpec cluster = ClusterSpec::frontier();
  const DatasetSpec data = DatasetSpec::modis();
  const ModelConfig model = make_model(Architecture::kMae, 1'000'000'000);
  DdpConfig off;
  DdpConfig on = off;
  on.checkpoint_interval_steps = 100;
  on.checkpoint_bandwidth_gbs = 40.0;
  const DdpCostModel a(cluster, model, data, off);
  const DdpCostModel b(cluster, model, data, on);
  EXPECT_DOUBLE_EQ(a.checkpoint_time_per_step_s(), 0.0);
  // 1B params * 12 bytes / 40 GB/s / 100 steps = 3 ms/step.
  EXPECT_NEAR(b.checkpoint_time_per_step_s(), 0.003, 1e-9);
  EXPECT_GT(b.step_time_s(), a.step_time_s());
  // More frequent checkpoints cost more.
  DdpConfig frequent = on;
  frequent.checkpoint_interval_steps = 10;
  const DdpCostModel c(cluster, model, data, frequent);
  EXPECT_GT(c.checkpoint_time_per_step_s(), b.checkpoint_time_per_step_s());
}

// ----------------------------------------------------------------- trainer

TEST(Trainer, SmallRunCompletes) {
  const TrainResult r = DdpTrainer(small_config()).run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.epochs_finished, 5);
  EXPECT_GT(r.final_loss, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.wall_time_s, 0.0);
  EXPECT_EQ(r.samples_seen, 5 * 800'000);  // 800000/256 = 3125 steps * 256
}

TEST(Trainer, DeterministicUnderSeed) {
  const TrainResult a = DdpTrainer(small_config()).run();
  const TrainResult b = DdpTrainer(small_config()).run();
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(Trainer, SeedOnlyPerturbsLossJitter) {
  TrainConfig c1 = small_config();
  TrainConfig c2 = small_config();
  c2.seed = 999;
  const TrainResult a = DdpTrainer(c1).run();
  const TrainResult b = DdpTrainer(c2).run();
  EXPECT_DOUBLE_EQ(a.wall_time_s, b.wall_time_s);  // timing is seed-free
  EXPECT_NE(a.final_loss, b.final_loss);
  EXPECT_NEAR(a.final_loss, b.final_loss, 0.05);
}

TEST(Trainer, WalltimeLimitProducesIncompleteRun) {
  // 1.4B on 8 GPUs cannot finish 10 epochs inside 2 hours (the paper's
  // empty cells).
  TrainConfig cfg = small_config(Architecture::kSwinV2, 1'400'000'000, 8);
  cfg.epochs = 10;
  const TrainResult r = DdpTrainer(cfg).run();
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.epochs_finished, 10);
  EXPECT_NEAR(r.wall_time_s, cfg.walltime_limit_s, 1.0);
  EXPECT_GT(r.energy_j, 0.0);
}

TEST(Trainer, MoreDevicesFinishFaster) {
  const TrainResult slow = DdpTrainer(small_config(Architecture::kMae, 600'000'000, 8)).run();
  const TrainResult fast =
      DdpTrainer(small_config(Architecture::kMae, 600'000'000, 128)).run();
  EXPECT_GT(slow.wall_time_s, fast.wall_time_s);
}

TEST(Trainer, ObserverFiresPerEpoch) {
  std::vector<EpochReport> reports;
  const TrainResult r =
      DdpTrainer(small_config()).run([&](const EpochReport& rep) { reports.push_back(rep); });
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports.back().epoch, 4);
  EXPECT_GT(reports.front().train_loss, reports.back().train_loss);
  EXPECT_LT(reports.front().cumulative_energy_j, reports.back().cumulative_energy_j);
  EXPECT_DOUBLE_EQ(reports.back().cumulative_time_s, r.wall_time_s);
  for (const EpochReport& rep : reports) {
    EXPECT_GT(rep.val_loss, rep.train_loss);
  }
}

TEST(Trainer, EnergyEqualsPowerTimesTime) {
  const TrainResult r = DdpTrainer(small_config()).run();
  EXPECT_NEAR(r.energy_j, r.mean_power_w * r.wall_time_s, r.energy_j * 1e-9);
}

TEST(Trainer, FinetuneCheaperThanPretrain) {
  const TrainConfig pre = small_config(Architecture::kSwinV2, 600'000'000, 32);
  const TrainResult pretrain = DdpTrainer(pre).run();
  const TrainResult fine = run_finetune(pre, FinetuneConfig{});
  EXPECT_TRUE(fine.completed);
  EXPECT_LT(fine.wall_time_s, pretrain.wall_time_s / 10);
  EXPECT_LT(fine.energy_j, pretrain.energy_j / 10);
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      ++counter;
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  common::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  common::ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
    }
  }  // destructor must wait for the queue to drain
  EXPECT_EQ(done.load(), 50);
}

// ------------------------------------------------------------------- sweep

TEST(Sweep, GridCoversFullStudy) {
  const auto grid = build_scaling_grid(Architecture::kMae, TrainConfig{});
  ASSERT_EQ(grid.size(), 20u);  // 4 sizes × 5 device counts
  std::set<std::pair<std::int64_t, int>> cells;
  for (const TrainConfig& cfg : grid) {
    cells.insert({cfg.model.parameters, cfg.ddp.devices});
  }
  EXPECT_EQ(cells.size(), 20u);
}

TEST(Sweep, ParallelMatchesSequential) {
  TrainConfig base;
  base.epochs = 3;
  const auto grid = build_scaling_grid(Architecture::kSwinV2, base);
  const auto seq = run_sweep(grid, 1);
  const auto par = run_sweep(grid, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i].result.final_loss, par[i].result.final_loss) << i;
    EXPECT_DOUBLE_EQ(seq[i].result.energy_j, par[i].result.energy_j) << i;
  }
}

TEST(Sweep, TradeoffTableShape) {
  TrainConfig base;
  base.epochs = 10;
  const TradeoffTable t = run_tradeoff_study(Architecture::kMae, base, 4);
  EXPECT_EQ(t.model_sizes.size(), 4u);
  EXPECT_EQ(t.device_counts.size(), 5u);
  EXPECT_EQ(t.loss_energy.size(), 20u);
  EXPECT_EQ(t.cells.size(), 20u);
}

TEST(Sweep, BigModelFewDevicesIsEmptyCell) {
  TrainConfig base;
  base.epochs = 10;
  const TradeoffTable t = run_tradeoff_study(Architecture::kSwinV2, base, 4);
  // 1.4B (row 3) on 8 GPUs (col 0) must exceed the 2 h walltime...
  EXPECT_TRUE(std::isnan(t.at(3, 0)));
  // ...while the small model on many devices completes.
  EXPECT_FALSE(std::isnan(t.at(0, 4)));
}

TEST(Sweep, SmallDataFavorsFewDevices) {
  // The paper: "a smaller model and smaller compute are beneficial when the
  // dataset is contained". With 5% of MODIS, 8 GPUs beat 128 on loss×energy
  // for the 100M model.
  TrainConfig base;
  base.epochs = 10;
  base.dataset.samples = 40'000;
  const TradeoffTable t = run_tradeoff_study(Architecture::kSwinV2, base, 4);
  EXPECT_LT(t.at(0, 0), t.at(0, 4));
}

TEST(Sweep, FullDataFavorsMoreDevices) {
  // "when scaling up the samples used it becomes unreasonable to stick with
  // less compute devices": for the 1.4B model on full MODIS, 128 GPUs give
  // a finite (completed) cell while 8 GPUs give an empty one.
  TrainConfig base;
  base.epochs = 10;
  const TradeoffTable t = run_tradeoff_study(Architecture::kSwinV2, base, 4);
  EXPECT_TRUE(std::isnan(t.at(3, 0)));
  EXPECT_FALSE(std::isnan(t.at(3, 4)));
}

}  // namespace
}  // namespace provml::sim
