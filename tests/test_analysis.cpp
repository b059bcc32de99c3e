#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <random>

#include "provml/analysis/advisor.hpp"
#include "provml/analysis/forecast.hpp"
#include "provml/analysis/pareto.hpp"
#include "provml/analysis/scaling_fit.hpp"
#include "provml/core/run.hpp"
#include "provml/sim/sweep.hpp"

namespace provml::analysis {
namespace {

// -------------------------------------------------------------- scaling fit

std::vector<ScalingPoint> synthetic_points(double e, double a, double alpha, double b,
                                           double beta, double noise_sigma,
                                           unsigned seed = 7) {
  std::mt19937_64 rng(seed);
  // Scaled unit normal: normal_distribution needs a positive stddev, and
  // the noiseless cases pass 0.
  std::normal_distribution<double> unit_normal(0.0, 1.0);
  std::vector<ScalingPoint> points;
  for (const double n : {1e8, 2e8, 6e8, 1.4e9}) {
    for (const double d : {1e6, 4e6, 8e6, 2e7}) {
      const double loss = e + a * std::pow(n, -alpha) + b * std::pow(d, -beta);
      points.push_back({n, d, loss + unit_normal(rng) * noise_sigma});
    }
  }
  return points;
}

TEST(ScalingFit, RecoversNoiselessLaw) {
  const auto points = synthetic_points(0.4, 30.0, 0.3, 120.0, 0.4, 0.0);
  const auto law = fit_scaling_law(points);
  ASSERT_TRUE(law.ok()) << law.error().to_string();
  EXPECT_NEAR(law.value().alpha, 0.3, 0.03);
  EXPECT_NEAR(law.value().beta, 0.4, 0.03);
  EXPECT_NEAR(law.value().e, 0.4, 0.03);
  EXPECT_LT(law.value().rmse, 1e-3);
}

TEST(ScalingFit, PredictsUnseenConfigurations) {
  const auto points = synthetic_points(0.4, 30.0, 0.3, 120.0, 0.4, 0.0);
  const ScalingLaw law = fit_scaling_law(points).take();
  // A configuration not in the training grid.
  const double truth = 0.4 + 30.0 * std::pow(4e8, -0.3) + 120.0 * std::pow(1.2e7, -0.4);
  EXPECT_NEAR(law.predict(4e8, 1.2e7), truth, 0.01);
}

TEST(ScalingFit, ToleratesNoise) {
  const auto points = synthetic_points(0.4, 30.0, 0.3, 120.0, 0.4, 0.005);
  const auto law = fit_scaling_law(points);
  ASSERT_TRUE(law.ok());
  EXPECT_NEAR(law.value().e, 0.4, 0.1);
  EXPECT_LT(law.value().rmse, 0.02);
}

TEST(ScalingFit, SamplesToReachTarget) {
  const auto points = synthetic_points(0.4, 30.0, 0.3, 120.0, 0.4, 0.0);
  const ScalingLaw law = fit_scaling_law(points).take();
  const double n = 6e8;
  const double target = law.predict(n, 5e6);  // loss at 5M samples
  const double needed = law.samples_to_reach(n, target);
  EXPECT_NEAR(needed, 5e6, 5e5);
  // Unreachable target (below the asymptote):
  EXPECT_TRUE(std::isinf(law.samples_to_reach(n, 0.01)));
}

TEST(ScalingFit, RejectsDegenerateInputs) {
  EXPECT_FALSE(fit_scaling_law({}).ok());
  EXPECT_FALSE(fit_scaling_law({{1e8, 1e6, 1.0}, {1e8, 1e6, 1.0}, {1e8, 1e6, 1.0},
                                {1e8, 1e6, 1.0}})
                   .ok());  // no N/D variation
  EXPECT_FALSE(fit_scaling_law({{-1, 1e6, 1.0}, {1e8, 1e6, 1.0}, {2e8, 2e6, 1.0},
                                {3e8, 3e6, 1.0}})
                   .ok());  // negative N
}

TEST(ScalingFit, RecoversSimulatorLaw) {
  // End-to-end: observations produced by the training simulator itself.
  std::vector<ScalingPoint> points;
  for (const auto& model : sim::scaling_study_models(sim::Architecture::kSwinV2)) {
    for (const int epochs : {2, 5, 10}) {
      sim::TrainConfig cfg;
      cfg.model = model;
      cfg.epochs = epochs;
      cfg.ddp.devices = 128;
      cfg.loss_noise_sigma = 0;  // clean observations
      const sim::TrainResult r = sim::DdpTrainer(cfg).run();
      if (!r.completed) continue;
      points.push_back({static_cast<double>(model.parameters),
                        static_cast<double>(r.samples_seen), r.final_loss});
    }
  }
  ASSERT_GE(points.size(), 8u);
  const auto law = fit_scaling_law(points);
  ASSERT_TRUE(law.ok()) << law.error().to_string();
  // The simulator's ground truth: alpha=0.36, beta=0.41, e=0.22.
  EXPECT_NEAR(law.value().alpha, 0.36, 0.05);
  EXPECT_NEAR(law.value().beta, 0.41, 0.05);
  EXPECT_NEAR(law.value().e, 0.22, 0.05);
}


TEST(ComputeOptimal, BalancesTermsAtTheOptimum) {
  // With the synthetic law, the optimum satisfies the Chinchilla balance
  // condition alpha·A·N^-alpha = beta·B·D^-beta; verify numerically that
  // perturbing N in either direction raises the predicted loss.
  ScalingLaw law{0.4, 30.0, 0.3, 120.0, 0.4, 0.0};
  const double budget = 1e21;
  const double k = 6.0 * 64;  // dense transformer, 64 tokens/sample
  const auto opt = compute_optimal(law, budget, k);
  ASSERT_TRUE(opt.ok()) << opt.error().to_string();
  const double c = budget / k;
  EXPECT_NEAR(opt.value().parameters * opt.value().samples, c, c * 1e-6);
  for (const double factor : {0.5, 2.0}) {
    const double n = opt.value().parameters * factor;
    EXPECT_GT(law.predict(n, c / n), opt.value().predicted_loss);
  }
}

TEST(ComputeOptimal, BiggerBudgetsBuyBiggerModelsAndLowerLoss) {
  ScalingLaw law{0.3, 50.0, 0.35, 150.0, 0.37, 0.0};
  const auto small = compute_optimal(law, 1e20, 384.0).take();
  const auto large = compute_optimal(law, 1e22, 384.0).take();
  EXPECT_GT(large.parameters, small.parameters);
  EXPECT_GT(large.samples, small.samples);
  EXPECT_LT(large.predicted_loss, small.predicted_loss);
}

TEST(ComputeOptimal, RejectsBadInputs) {
  ScalingLaw law{0.4, 30.0, 0.3, 120.0, 0.4, 0.0};
  EXPECT_FALSE(compute_optimal(law, 0, 384).ok());
  EXPECT_FALSE(compute_optimal(law, 1e20, -1).ok());
}

TEST(ComputeOptimal, EndToEndFromSimulatorFit) {
  // Fit the law from simulator observations, then ask where a fixed budget
  // should go; the recommendation must beat naive unbalanced splits.
  std::vector<ScalingPoint> points;
  for (const auto& model : sim::scaling_study_models(sim::Architecture::kSwinV2)) {
    for (const int epochs : {2, 5, 10}) {
      sim::TrainConfig cfg;
      cfg.model = model;
      cfg.epochs = epochs;
      cfg.ddp.devices = 128;
      cfg.loss_noise_sigma = 0;
      const sim::TrainResult r = sim::DdpTrainer(cfg).run();
      if (!r.completed) continue;
      points.push_back({static_cast<double>(model.parameters),
                        static_cast<double>(r.samples_seen), r.final_loss});
    }
  }
  const ScalingLaw law = fit_scaling_law(points).take();
  const double k = sim::make_model(sim::Architecture::kSwinV2, 1)
                       .train_flops_per_sample(sim::DatasetSpec::modis());  // per param
  const auto opt = compute_optimal(law, 1e21, k);
  ASSERT_TRUE(opt.ok());
  const double c = 1e21 / k;
  // Unbalanced splits (10x too many params / samples) predict worse loss.
  EXPECT_LT(opt.value().predicted_loss,
            law.predict(opt.value().parameters * 10, c / (opt.value().parameters * 10)));
  EXPECT_LT(opt.value().predicted_loss,
            law.predict(opt.value().parameters / 10, c / (opt.value().parameters / 10)));
}

// ----------------------------------------------------------------- forecast

RunRecord record(const std::string& name, double lr, double devices, double loss) {
  RunRecord r;
  r.run_name = name;
  r.features = {{"lr", lr}, {"devices", devices}};
  r.outputs = {{"final_loss", loss}};
  return r;
}

TEST(Forecast, NearestNeighborDominates) {
  RunDatabase db;
  db.add(record("close", 1e-4, 8, 0.5));
  db.add(record("far", 1e-1, 128, 2.0));
  const auto p = db.predict({{"lr", 1.1e-4}, {"devices", 8}}, "final_loss", 1);
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  EXPECT_NEAR(p.value().value, 0.5, 1e-6);
  EXPECT_EQ(p.value().neighbors_used, (std::vector<std::string>{"close"}));
}

TEST(Forecast, WeightedAverageBetweenNeighbors) {
  RunDatabase db;
  db.add(record("a", 0.0, 0, 1.0));
  db.add(record("b", 1.0, 0, 3.0));
  // Query exactly midway: prediction between the two values.
  const auto p = db.predict({{"lr", 0.5}, {"devices", 0}}, "final_loss", 2);
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p.value().value, 1.0);
  EXPECT_LT(p.value().value, 3.0);
  EXPECT_EQ(p.value().neighbors_used.size(), 2u);
}

TEST(Forecast, ErrorsWithoutMatchingOutputOrFeatures) {
  RunDatabase db;
  db.add(record("a", 1e-4, 8, 0.5));
  EXPECT_FALSE(db.predict({{"lr", 1e-4}}, "accuracy").ok());
  EXPECT_FALSE(db.predict({{"momentum", 0.9}}, "final_loss").ok());
  EXPECT_FALSE(db.predict({{"lr", 1e-4}}, "final_loss", 0).ok());
  RunDatabase empty;
  EXPECT_FALSE(empty.predict({{"lr", 1e-4}}, "final_loss").ok());
}

TEST(Forecast, HarvestsFromRunDocument) {
  namespace fs = std::filesystem;
  core::RunOptions opts;
  opts.provenance_dir =
      (fs::temp_directory_path() / "provml_forecast").string();
  opts.metric_store = "embedded";
  core::Experiment exp("forecast_demo");
  core::Run& run = exp.start_run(opts, "r0");
  run.log_param("lr", 1e-4);
  run.log_param("devices", 32);
  run.log_param("notes", "string params are skipped");
  run.log_param("final_loss", 0.42, core::IoRole::kOutput);
  ASSERT_TRUE(run.finish().ok());

  RunDatabase db;
  ASSERT_TRUE(db.add_document(run.document()).ok());
  ASSERT_EQ(db.size(), 1u);
  const RunRecord& rec = db.records()[0];
  EXPECT_EQ(rec.run_name, "r0");
  EXPECT_EQ(rec.features.size(), 2u);  // lr + devices, not the string
  EXPECT_DOUBLE_EQ(rec.outputs.at("final_loss"), 0.42);
  fs::remove_all(opts.provenance_dir);
}

TEST(Forecast, PredictsSimulatorRunsAccurately) {
  // Build a database from simulator runs over a grid, then predict a
  // held-out configuration; the k-NN estimate should be within ~15% (loss
  // varies smoothly in devices and epochs).
  RunDatabase db;
  for (const int devices : {8, 16, 32, 64, 128}) {
    for (const int epochs : {2, 6, 10}) {
      sim::TrainConfig cfg;
      cfg.model = sim::make_model(sim::Architecture::kMae, 200'000'000);
      cfg.ddp.devices = devices;
      cfg.epochs = epochs;
      const sim::TrainResult r = sim::DdpTrainer(cfg).run();
      RunRecord rec;
      rec.run_name = std::to_string(devices) + "/" + std::to_string(epochs);
      rec.features = {{"devices", static_cast<double>(devices)},
                      {"epochs", static_cast<double>(epochs)}};
      rec.outputs = {{"final_loss", r.final_loss}, {"energy", r.energy_j}};
      db.add(rec);
    }
  }
  sim::TrainConfig held_out;
  held_out.model = sim::make_model(sim::Architecture::kMae, 200'000'000);
  held_out.ddp.devices = 48;
  held_out.epochs = 8;
  const sim::TrainResult truth = sim::DdpTrainer(held_out).run();
  const auto p = db.predict({{"devices", 48.0}, {"epochs", 8.0}}, "final_loss", 3);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value().value, truth.final_loss, truth.final_loss * 0.15);
  const auto pe = db.predict({{"devices", 48.0}, {"epochs", 8.0}}, "energy", 3);
  ASSERT_TRUE(pe.ok());
  EXPECT_NEAR(pe.value().value, truth.energy_j, truth.energy_j * 0.5);
}


// ------------------------------------------------------------------ pareto

TEST(Pareto, Domination) {
  const ParetoPoint a{"a", {1.0, 1.0}};
  const ParetoPoint b{"b", {2.0, 2.0}};
  const ParetoPoint c{"c", {1.0, 2.0}};
  const ParetoPoint d{"d", {2.0, 1.0}};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_TRUE(dominates(a, c));
  EXPECT_FALSE(dominates(c, d));  // incomparable
  EXPECT_FALSE(dominates(d, c));
  EXPECT_FALSE(dominates(a, a));  // not strictly better anywhere
}

TEST(Pareto, FrontFromScalingStudy) {
  // Each cell's (loss, energy): large models cost more but lose less —
  // every point on the diagonal is non-dominated; the corner point that is
  // worse on both axes is dominated.
  std::vector<ParetoPoint> points{
      {"100M/8", {0.9, 1.0}},
      {"600M/32", {0.6, 3.0}},
      {"1.4B/128", {0.5, 9.0}},
      {"100M/128", {0.95, 2.5}},  // dominated by 100M/8
  };
  const auto front = pareto_front(points);
  ASSERT_TRUE(front.ok());
  ASSERT_EQ(front.value().size(), 3u);
  for (const ParetoPoint& p : front.value()) {
    EXPECT_NE(p.label, "100M/128");
  }
}

TEST(Pareto, BestByProductMatchesFigure3Objective) {
  std::vector<ParetoPoint> points{
      {"a", {0.9, 1.0}},   // 0.9
      {"b", {0.6, 3.0}},   // 1.8
      {"c", {0.5, 9.0}},   // 4.5
  };
  const auto best = best_by_product(points);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().label, "a");
}

TEST(Pareto, RejectsDegenerateInputs) {
  EXPECT_FALSE(pareto_front({}).ok());
  EXPECT_FALSE(pareto_front({{"a", {}}}).ok());
  EXPECT_FALSE(pareto_front({{"a", {1.0}}, {"b", {1.0, 2.0}}}).ok());
  EXPECT_FALSE(
      pareto_front({{"a", {std::numeric_limits<double>::quiet_NaN()}}}).ok());
  EXPECT_FALSE(best_by_product({}).ok());
}

TEST(Pareto, SimulatedStudyFrontExcludesWalltimeFailures) {
  sim::TrainConfig base;
  base.epochs = 10;
  const sim::TradeoffTable table =
      sim::run_tradeoff_study(sim::Architecture::kSwinV2, base, 4);
  std::vector<ParetoPoint> points;
  for (const sim::SweepCell& cell : table.cells) {
    if (!cell.result.completed) continue;  // empty cells can't be chosen
    points.push_back({cell.config.model.name + "/" +
                          std::to_string(cell.config.ddp.devices),
                      {cell.result.final_loss, cell.result.energy_j}});
  }
  const auto front = pareto_front(points);
  ASSERT_TRUE(front.ok());
  EXPECT_GE(front.value().size(), 2u);       // a real trade-off curve
  EXPECT_LT(front.value().size(), points.size());  // some cells dominated
}

// ------------------------------------------------------------------ advisor

TEST(Advisor, StopsOnConvergence) {
  TrainingAdvisor advisor(AdvisorConfig{.min_relative_improvement = 0.01});
  Advice advice;
  int stopped_at = -1;
  for (int epoch = 0; epoch < 60; ++epoch) {
    // Power-law decay flattening out.
    const double loss = 0.4 + 2.0 * std::pow(epoch + 1.0, -1.2);
    advice = advisor.observe(epoch, loss, 0, 0);
    if (advice.should_stop) {
      stopped_at = epoch;
      break;
    }
  }
  ASSERT_NE(stopped_at, -1) << "advisor never recommended stopping";
  EXPECT_EQ(advice.reason, StopReason::kConverged);
  EXPECT_GT(stopped_at, 3);   // not during warmup
  EXPECT_LT(stopped_at, 50);  // but well before the loop ends
}

TEST(Advisor, KeepsGoingWhileImproving) {
  TrainingAdvisor advisor(AdvisorConfig{.min_relative_improvement = 0.001});
  for (int epoch = 0; epoch < 6; ++epoch) {
    const double loss = 2.0 * std::pow(0.5, epoch);  // halving every epoch
    const Advice advice = advisor.observe(epoch, loss, 0, 0);
    EXPECT_FALSE(advice.should_stop) << "epoch " << epoch;
  }
}

TEST(Advisor, HardBudgetsTrigger) {
  AdvisorConfig cfg;
  cfg.energy_budget_j = 1000;
  TrainingAdvisor energy_advisor(cfg);
  EXPECT_FALSE(energy_advisor.observe(0, 1.0, 500, 0).should_stop);
  const Advice a = energy_advisor.observe(1, 0.9, 1500, 0);
  EXPECT_TRUE(a.should_stop);
  EXPECT_EQ(a.reason, StopReason::kEnergyBudget);

  AdvisorConfig cfg2;
  cfg2.time_budget_s = 60;
  TrainingAdvisor time_advisor(cfg2);
  const Advice b = time_advisor.observe(0, 1.0, 0, 61);
  EXPECT_TRUE(b.should_stop);
  EXPECT_EQ(b.reason, StopReason::kTimeBudget);
}

TEST(Advisor, TargetLossTriggers) {
  AdvisorConfig cfg;
  cfg.target_loss = 0.5;
  TrainingAdvisor advisor(cfg);
  EXPECT_FALSE(advisor.observe(0, 0.9, 0, 0).should_stop);
  const Advice a = advisor.observe(1, 0.49, 0, 0);
  EXPECT_TRUE(a.should_stop);
  EXPECT_EQ(a.reason, StopReason::kTargetReached);
}

TEST(Advisor, WarmupSuppressesEarlyStops) {
  AdvisorConfig cfg;
  cfg.warmup_epochs = 5;
  cfg.min_relative_improvement = 0.5;  // would trigger immediately otherwise
  TrainingAdvisor advisor(cfg);
  for (int epoch = 0; epoch < 4; ++epoch) {
    EXPECT_FALSE(advisor.observe(epoch, 1.0, 0, 0).should_stop) << epoch;
  }
}

TEST(Advisor, ReasonNames) {
  EXPECT_STREQ(stop_reason_name(StopReason::kContinue), "continue");
  EXPECT_STREQ(stop_reason_name(StopReason::kConverged), "converged");
  EXPECT_STREQ(stop_reason_name(StopReason::kTargetReached), "target-reached");
  EXPECT_STREQ(stop_reason_name(StopReason::kEnergyBudget), "energy-budget");
  EXPECT_STREQ(stop_reason_name(StopReason::kTimeBudget), "time-budget");
}

TEST(Advisor, SavesEnergyOnSimulatedRun) {
  // The paper's claim: stopping on convergence saves compute. Simulate a
  // 30-epoch run; the advisor should cut it short at minimal loss cost.
  sim::TrainConfig cfg;
  cfg.model = sim::make_model(sim::Architecture::kSwinV2, 100'000'000);
  cfg.ddp.devices = 64;
  cfg.epochs = 30;
  cfg.walltime_limit_s = 1e9;

  TrainingAdvisor advisor(
      AdvisorConfig{.min_relative_improvement = 0.01, .patience = 3});
  double stopped_energy = 0;
  double stopped_loss = 0;
  bool stopped = false;
  const sim::TrainResult full = sim::DdpTrainer(cfg).run(
      [&](const sim::EpochReport& report) {
        if (stopped) return;
        const Advice advice = advisor.observe(report.epoch, report.train_loss,
                                              report.cumulative_energy_j,
                                              report.cumulative_time_s);
        if (advice.should_stop) {
          stopped = true;
          stopped_energy = report.cumulative_energy_j;
          stopped_loss = report.train_loss;
        }
      });
  ASSERT_TRUE(stopped);
  EXPECT_LT(stopped_energy, full.energy_j * 0.8);            // >20% energy saved
  EXPECT_LT(stopped_loss, full.final_loss * 1.15);           // <15% loss penalty
}

}  // namespace
}  // namespace provml::analysis
