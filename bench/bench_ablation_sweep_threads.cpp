// Ablation: sweep-engine threading. The scaling study's 20-cell grid (and
// larger hyperparameter grids) are embarrassingly parallel across cells;
// this bench measures wall time of the full MAE study versus worker count.
#include <benchmark/benchmark.h>

#include "provml/sim/sweep.hpp"
#include "provml/common/thread_pool.hpp"

namespace {

using namespace provml::sim;

void BM_TradeoffStudy(benchmark::State& state) {
  TrainConfig base;
  base.epochs = 10;
  const auto workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const TradeoffTable table = run_tradeoff_study(Architecture::kMae, base, workers);
    benchmark::DoNotOptimize(table.loss_energy.data());
  }
  state.SetItemsProcessed(state.iterations() * 20);  // 20 grid cells
}
BENCHMARK(BM_TradeoffStudy)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Larger synthetic grid (both architectures, several seeds) to expose
/// scheduling overheads at higher cell counts.
void BM_LargeSweep(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  std::vector<TrainConfig> configs;
  for (const Architecture arch : {Architecture::kMae, Architecture::kSwinV2}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      TrainConfig base;
      base.epochs = 10;
      base.seed = seed;
      for (TrainConfig& cfg : build_scaling_grid(arch, base)) {
        configs.push_back(std::move(cfg));
      }
    }
  }
  for (auto _ : state) {
    const auto cells = run_sweep(configs, workers);
    benchmark::DoNotOptimize(cells.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_LargeSweep)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Raw thread-pool dispatch overhead per task.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  provml::common::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto f = pool.submit([] { return 1; });
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
