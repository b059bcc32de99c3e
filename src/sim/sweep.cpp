#include "provml/sim/sweep.hpp"

#include <cmath>
#include <future>

#include "provml/common/thread_pool.hpp"

namespace provml::sim {

std::vector<TrainConfig> build_scaling_grid(Architecture arch, const TrainConfig& base) {
  std::vector<TrainConfig> grid;
  for (const ModelConfig& model : scaling_study_models(arch)) {
    for (const int devices : scaling_study_device_counts()) {
      TrainConfig cfg = base;
      cfg.model = model;
      cfg.ddp.devices = devices;
      // Deterministic per-cell seed so the sweep is reproducible whatever
      // the execution order.
      cfg.seed = base.seed * 1000003 + static_cast<std::uint64_t>(model.parameters / 1000) +
                 static_cast<std::uint64_t>(devices);
      grid.push_back(std::move(cfg));
    }
  }
  return grid;
}

std::vector<SweepCell> run_sweep(const std::vector<TrainConfig>& configs, unsigned workers) {
  std::vector<SweepCell> cells(configs.size());
  if (workers == 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      cells[i].config = configs[i];
      cells[i].result = DdpTrainer(configs[i]).run();
    }
    return cells;
  }
  common::ThreadPool pool(workers);
  std::vector<std::future<TrainResult>> futures;
  futures.reserve(configs.size());
  for (const TrainConfig& cfg : configs) {
    futures.push_back(pool.submit([cfg] { return DdpTrainer(cfg).run(); }));
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cells[i].config = configs[i];
    cells[i].result = futures[i].get();
  }
  return cells;
}

TradeoffTable run_tradeoff_study(Architecture arch, const TrainConfig& base,
                                 unsigned workers) {
  TradeoffTable table;
  table.arch = arch;
  for (const ModelConfig& model : scaling_study_models(arch)) {
    table.model_sizes.push_back(model.parameters);
  }
  table.device_counts = scaling_study_device_counts();

  const std::vector<TrainConfig> grid = build_scaling_grid(arch, base);
  table.cells = run_sweep(grid, workers);
  table.loss_energy.reserve(table.cells.size());
  for (const SweepCell& cell : table.cells) {
    table.loss_energy.push_back(cell.result.completed
                                    ? cell.result.loss_energy_product()
                                    : std::numeric_limits<double>::quiet_NaN());
  }
  return table;
}

}  // namespace provml::sim
