// Ablation: durability cost. Four questions the WAL design trades off:
//   1. Append throughput vs fsync policy — what does an acknowledged-write
//      durability guarantee cost per mutation?
//   2. Recovery time vs WAL tail length — how much replay does a crash
//      after N un-compacted records buy you?
//   3. Compaction pause — how long does folding a tail into a snapshot
//      take, as a function of the tail length?
//   4. Group commit vs appender count — concurrent appenders share
//      covering fsyncs, so fsyncs/append drops below 1.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "provml/wal/record.hpp"
#include "provml/wal/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace provml;

std::string bench_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / "provml_bench_wal" / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir.string();
}

wal::Record put_record(int i, std::size_t body_bytes) {
  return {wal::Record::Type::kPutDocument, "doc" + std::to_string(i % 64),
          std::string(body_bytes, 'p')};
}

/// Appends with a 256-byte document body under each fsync policy. The gap
/// between `none` and `every_write` is the per-mutation price of power-loss
/// durability; `interval` sits between (process-crash safe, bounded
/// staleness on power loss).
void BM_WalAppendFsyncPolicy(benchmark::State& state) {
  const auto policy = static_cast<wal::FsyncPolicy>(state.range(0));
  wal::Options options;
  options.fsync_policy = policy;
  options.compact_every = 0;
  const std::string dir = bench_dir(std::string("append_") + wal::to_string(policy));
  auto store = wal::DurableStore::open(dir, options);
  if (!store.ok()) {
    state.SkipWithError(store.error().message.c_str());
    return;
  }
  int i = 0;
  for (auto _ : state) {
    auto lsn = store.value()->append(put_record(i++, 256));
    benchmark::DoNotOptimize(lsn.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(store.value()->stats().appended_bytes));
  state.SetLabel(wal::to_string(policy));
  store.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppendFsyncPolicy)
    ->Arg(static_cast<int>(wal::FsyncPolicy::kEveryWrite))
    ->Arg(static_cast<int>(wal::FsyncPolicy::kInterval))
    ->Arg(static_cast<int>(wal::FsyncPolicy::kNone))
    ->Unit(benchmark::kMicrosecond);

/// Builds a store with `range(0)` un-compacted records once, then measures
/// recover() repeatedly — recovery of a clean directory is read-only, so
/// the same tail can be replayed every iteration.
void BM_WalRecovery(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("recover_" + std::to_string(records));
  {
    wal::Options options;
    options.fsync_policy = wal::FsyncPolicy::kNone;
    options.compact_every = 0;
    auto store = wal::DurableStore::open(dir, options);
    if (!store.ok()) {
      state.SkipWithError(store.error().message.c_str());
      return;
    }
    for (int i = 0; i < records; ++i) {
      if (!store.value()->append(put_record(i, 256)).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    auto recovered = wal::recover(dir);
    benchmark::DoNotOptimize(recovered.ok() &&
                             recovered.value().last_lsn ==
                                 static_cast<wal::Lsn>(records));
  }
  state.SetItemsProcessed(state.iterations() * records);
  fs::remove_all(dir);
}
BENCHMARK(BM_WalRecovery)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Measures one compact() call after appending a fresh `range(0)`-record
/// tail (appends excluded via PauseTiming). This is the pause a server
/// pays when the record budget fills — on the background thread in
/// production, inline here to make it measurable.
void BM_WalCompactionPause(benchmark::State& state) {
  const int tail = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("compact_" + std::to_string(tail));
  wal::Options options;
  options.fsync_policy = wal::FsyncPolicy::kNone;
  options.compact_every = 0;
  auto store = wal::DurableStore::open(dir, options);
  if (!store.ok()) {
    state.SkipWithError(store.error().message.c_str());
    return;
  }
  int i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < tail; ++k) {
      if (!store.value()->append(put_record(i++, 256)).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
    state.ResumeTiming();
    auto compacted = store.value()->compact();
    benchmark::DoNotOptimize(compacted.ok());
  }
  state.SetItemsProcessed(state.iterations() * tail);
  store.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalCompactionPause)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Group-commit WAL: concurrent appenders against one kEveryWrite store.
/// The counter to watch is fsyncs_per_append — 1.0 single-threaded by
/// construction, below 1.0 as soon as appenders overlap and share
/// covering fsyncs. Timed on the wall clock: the appenders are threads.
void BM_WalGroupCommitAppend(benchmark::State& state) {
  const int appenders = static_cast<int>(state.range(0));
  constexpr int kAppendsEach = 16;
  const std::string dir = bench_dir("group_commit_" + std::to_string(appenders));
  wal::Options options;
  options.fsync_policy = wal::FsyncPolicy::kEveryWrite;
  options.compact_every = 0;
  auto store = wal::DurableStore::open(dir, options);
  if (!store.ok()) {
    state.SkipWithError(store.error().message.c_str());
    return;
  }
  const std::string body(256, 'p');
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(appenders));
    for (int t = 0; t < appenders; ++t) {
      threads.emplace_back([&store, &body, t] {
        for (int i = 0; i < kAppendsEach; ++i) {
          auto lsn = store.value()->append(
              {wal::Record::Type::kPutDocument,
               "doc" + std::to_string(t * kAppendsEach + i), body});
          benchmark::DoNotOptimize(lsn.ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const wal::Stats stats = store.value()->stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.appends));
  state.counters["fsyncs_per_append"] =
      stats.appends == 0 ? 0.0
                         : static_cast<double>(stats.fsyncs) /
                               static_cast<double>(stats.appends);
  state.SetLabel(std::to_string(appenders) + " appender(s)");
  store.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalGroupCommitAppend)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
