// Ablation: workflow-engine overhead. Measures per-task scheduling +
// provenance-capture cost for chains and fan-outs of trivial tasks, and the
// speedup of parallel workers on independent branches.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "provml/workflow/workflow.hpp"

namespace {

using namespace provml;
using namespace provml::workflow;

Workflow chain(int length) {
  Workflow wf("chain");
  for (int i = 0; i < length; ++i) {
    TaskSpec task;
    task.name = "t" + std::to_string(i);
    if (i > 0) {
      task.after = {"t" + std::to_string(i - 1)};
      task.consumes = {"d" + std::to_string(i - 1)};
    }
    task.produces = {"d" + std::to_string(i)};
    task.body = [i](TaskContext& ctx) {
      ctx.output("d" + std::to_string(i), json::Value(i));
      return Status::ok_status();
    };
    (void)wf.add_task(std::move(task));
  }
  return wf;
}

Workflow fan_out(int width, std::chrono::microseconds task_cost) {
  Workflow wf("fan");
  for (int i = 0; i < width; ++i) {
    TaskSpec task;
    task.name = "t" + std::to_string(i);
    task.body = [task_cost](TaskContext&) {
      std::this_thread::sleep_for(task_cost);
      return Status::ok_status();
    };
    (void)wf.add_task(std::move(task));
  }
  return wf;
}

void BM_ChainOverhead(benchmark::State& state) {
  const Workflow wf = chain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = run_workflow(wf);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainOverhead)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_FanOutWorkers(benchmark::State& state) {
  // 8 tasks of 1 ms each: sequential ≈ 8 ms, 8 workers ≈ 1 ms + overhead.
  const Workflow wf = fan_out(8, std::chrono::microseconds(1000));
  RunOptions options;
  options.workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto result = run_workflow(wf, options);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_FanOutWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ProvenanceCaptureShare(benchmark::State& state) {
  // The chain again, but isolating run_workflow's provenance document cost
  // by comparing against task count (reported as items/s; compare with
  // BM_ChainOverhead at the same arg).
  const Workflow wf = chain(64);
  for (auto _ : state) {
    auto result = run_workflow(wf);
    benchmark::DoNotOptimize(result.value().provenance.elements().size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ProvenanceCaptureShare)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
