// The streaming write path: MetricSink equivalence with batch writes,
// crash consistency of the zarr sink under fault injection, and
// the Run-level streaming mode (log_metric → flusher → sink).
// Labeled `stream` in ctest: `ctest -L stream`.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "provml/common/file_io.hpp"
#include "provml/core/run.hpp"
#include "provml/storage/json_store.hpp"
#include "provml/storage/netcdf_store.hpp"
#include "provml/storage/store.hpp"
#include "provml/storage/zarr_store.hpp"
#include "provml/testkit/fault.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::storage {
namespace {

namespace fs = std::filesystem;

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("provml_stream_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::FaultInjector::global().disarm_all();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

/// Every regular file under `root`, keyed by its path relative to root.
std::map<std::string, std::vector<std::uint8_t>> dir_contents(const std::string& root) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    auto data = io::read_file(entry.path().string());
    EXPECT_TRUE(data.ok()) << entry.path();
    out[fs::relative(entry.path(), root).string()] = data.take();
  }
  return out;
}

std::vector<std::uint8_t> file_contents(const std::string& p) {
  auto data = io::read_file(p);
  EXPECT_TRUE(data.ok()) << p;
  return data.ok() ? data.take() : std::vector<std::uint8_t>{};
}

/// Streams `set` through a sink sample-by-sample in round-robin order
/// across series — the interleaving a real training loop produces — and
/// seals. Series are declared in MetricSet order, like the batch writer.
/// A nonzero `flush_every` flushes the sink after every that many rounds,
/// as a streaming run's flusher does.
Status stream_interleaved(const MetricStore& store, const MetricSet& set,
                          const std::string& p, std::size_t flush_every = 0) {
  auto sink = store.open_sink(p);
  if (!sink.ok()) return sink.error();
  std::vector<std::size_t> ids;
  for (const MetricSeries& series : set.all()) {
    auto id = sink.value()->declare_series(series.name, series.context, series.unit);
    if (!id.ok()) return id.error();
    ids.push_back(id.value());
  }
  bool more = true;
  for (std::size_t i = 0; more; ++i) {
    more = false;
    std::size_t k = 0;
    for (const MetricSeries& series : set.all()) {
      if (i < series.samples.size()) {
        Status s = sink.value()->append(ids[k], series.samples[i]);
        if (!s.ok()) return s;
        more = true;
      }
      ++k;
    }
    if (flush_every != 0 && (i + 1) % flush_every == 0) {
      Status s = sink.value()->flush();
      if (!s.ok()) return s;
    }
  }
  return sink.value()->seal();
}

// ------------------------------------------------ batch / stream equivalence

// Satellite: property test — for every back-end, streaming a generated
// metric set through the sink produces a byte-identical store to the
// batch write() of the same set.
TEST_F(StreamingTest, StreamedZarrMatchesBatchBytes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testkit::Rng rng(seed);
    const MetricSet set = testkit::gen_metric_set(rng);
    ZarrMetricStore store(ZarrOptions{.chunk_length = 64});
    const std::string batch = path("batch_" + std::to_string(seed) + ".zarr");
    const std::string streamed = path("stream_" + std::to_string(seed) + ".zarr");
    ASSERT_TRUE(store.write(set, batch).ok());
    ASSERT_TRUE(stream_interleaved(store, set, streamed).ok());
    EXPECT_EQ(dir_contents(batch), dir_contents(streamed)) << "seed " << seed;
  }
}

TEST_F(StreamingTest, StreamedDurableZarrMatchesBatchBytes) {
  // Every zarr sink is durable: each flush() publishes intermediate
  // metadata during the run, but every intermediate file is overwritten
  // atomically; the sealed store must be indistinguishable from a batch
  // write. Flushing every 8 rounds lands both on and between chunk ends.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    testkit::Rng rng(seed);
    const MetricSet set = testkit::gen_metric_set(rng);
    ZarrMetricStore store(ZarrOptions{.chunk_length = 32});
    const std::string batch = path("dbatch_" + std::to_string(seed) + ".zarr");
    const std::string streamed = path("dstream_" + std::to_string(seed) + ".zarr");
    ASSERT_TRUE(store.write(set, batch).ok());
    ASSERT_TRUE(stream_interleaved(store, set, streamed, 8).ok());
    EXPECT_EQ(dir_contents(batch), dir_contents(streamed)) << "seed " << seed;
  }
}

TEST_F(StreamingTest, StreamedNetcdfMatchesBatchBytes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testkit::Rng rng(seed);
    const MetricSet set = testkit::gen_metric_set(rng);
    NetcdfMetricStore store;
    const std::string batch = path("batch_" + std::to_string(seed) + ".nc");
    const std::string streamed = path("stream_" + std::to_string(seed) + ".nc");
    ASSERT_TRUE(store.write(set, batch).ok());
    ASSERT_TRUE(stream_interleaved(store, set, streamed).ok());
    EXPECT_EQ(file_contents(batch), file_contents(streamed)) << "seed " << seed;
  }
}

TEST_F(StreamingTest, StreamedJsonMatchesBatchBytes) {
  testkit::Rng rng(7);
  const MetricSet set = testkit::gen_metric_set(rng);
  JsonMetricStore store;
  ASSERT_TRUE(store.write(set, path("batch.json")).ok());
  ASSERT_TRUE(stream_interleaved(store, set, path("stream.json")).ok());
  EXPECT_EQ(file_contents(path("batch.json")), file_contents(path("stream.json")));
}

TEST_F(StreamingTest, EmptyAndDegenerateSetsMatch) {
  ZarrMetricStore store;
  MetricSet empty;
  ASSERT_TRUE(store.write(empty, path("eb.zarr")).ok());
  ASSERT_TRUE(stream_interleaved(store, empty, path("es.zarr")).ok());
  EXPECT_EQ(dir_contents(path("eb.zarr")), dir_contents(path("es.zarr")));

  MetricSet one_empty_series;
  one_empty_series.series("loss", "TRAINING");
  ASSERT_TRUE(store.write(one_empty_series, path("ob.zarr")).ok());
  ASSERT_TRUE(stream_interleaved(store, one_empty_series, path("os.zarr")).ok());
  EXPECT_EQ(dir_contents(path("ob.zarr")), dir_contents(path("os.zarr")));
}

TEST_F(StreamingTest, SinkRejectsUseAfterSeal) {
  ZarrMetricStore store;
  auto sink = store.open_sink(path("sealed.zarr"));
  ASSERT_TRUE(sink.ok());
  auto id = sink.value()->declare_series("loss", "TRAINING", "");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sink.value()->seal().ok());
  ASSERT_TRUE(sink.value()->seal().ok());  // idempotent
  EXPECT_FALSE(sink.value()->append(id.value(), {0, 0, 1.0}).ok());
  EXPECT_FALSE(sink.value()->declare_series("x", "TRAINING", "").ok());
}

TEST_F(StreamingTest, FlushPublishesEveryCompletedChunk) {
  // Before seal(), a flush() publishes metadata for every chunk the sink
  // has written, and only for those: the 8-sample tail is still staged.
  ZarrMetricStore store(ZarrOptions{.chunk_length = 16});
  const std::string p = path("flushed.zarr");
  auto sink = store.open_sink(p);
  ASSERT_TRUE(sink.ok());
  auto id = sink.value()->declare_series("loss", "TRAINING", "");
  ASSERT_TRUE(id.ok());
  std::vector<MetricSample> samples;
  for (std::int64_t i = 0; i < 40; ++i) samples.push_back({i, 1000 + i, 0.25 * i});
  ASSERT_TRUE(sink.value()->append_block(id.value(), samples.data(), samples.size()).ok());
  ASSERT_TRUE(sink.value()->flush().ok());

  const std::vector<MetricSample> completed(samples.begin(), samples.begin() + 32);
  auto flushed = store.read(p);
  ASSERT_TRUE(flushed.ok()) << flushed.error().to_string();
  ASSERT_EQ(flushed.value().size(), 1u);
  EXPECT_EQ(flushed.value().all()[0].samples, completed);
  auto partial = store.read_series(p, "loss", "TRAINING");
  ASSERT_TRUE(partial.ok()) << partial.error().to_string();
  EXPECT_EQ(partial.value().samples, completed);

  ASSERT_TRUE(sink.value()->seal().ok());
  auto sealed = store.read(p);
  ASSERT_TRUE(sealed.ok()) << sealed.error().to_string();
  ASSERT_EQ(sealed.value().size(), 1u);
  EXPECT_EQ(sealed.value().all()[0].samples, samples);
}

// ------------------------------------------------------- crash consistency

/// Logs `total` samples of a deterministic ramp into a streaming zarr run
/// rooted at `prov_dir`, with a storage fault armed to fire on the Nth
/// write. Returns the Status of finish().
Status crashed_streaming_run(const std::string& prov_dir, const char* fault_point,
                             std::uint64_t fail_on_nth, std::size_t total) {
  core::RunOptions options;
  options.provenance_dir = prov_dir;
  options.metric_store = "zarr";
  options.sync_mode = core::MetricSyncMode::kStream;
  options.flush_chunk_length = 16;
  core::Experiment exp("crash");
  core::Run& run = exp.start_run(options, "victim");
  EXPECT_TRUE(run.streaming());
  // Armed only after the run opened its sink, so the faults land on chunk
  // and metadata writes mid-run — the "killed on the cluster" window.
  testkit::ScopedFault fault(fault_point, {.fail_on_nth = fail_on_nth});
  for (std::size_t i = 0; i < total; ++i) {
    run.log_metric("loss", static_cast<double>(i) * 0.5, static_cast<std::int64_t>(i));
  }
  return run.finish();
}

// Satellite: a streaming run killed mid-chunk leaves a store that reopens
// as a valid prefix of what was logged — never a torn or blended state.
TEST_F(StreamingTest, CrashedStreamingRunLeavesReadablePrefix) {
  const std::size_t total = 200;  // 12 full chunks of 16 + a tail
  bool saw_nonempty_prefix = false;
  for (const char* point : {"storage.write", "storage.rename"}) {
    for (std::uint64_t nth : {1ull, 5ull, 9ull, 20ull, 33ull}) {
      const std::string prov =
          path(std::string(point) + "_" + std::to_string(nth));
      Status finished = crashed_streaming_run(prov, point, nth, total);
      EXPECT_FALSE(finished.ok()) << point << " nth=" << nth;

      const std::string store_path = (fs::path(prov) / "victim_metrics.zarr").string();
      ZarrMetricStore store;
      auto reread = store.read(store_path);
      if (!reread.ok()) continue;  // killed before the first metadata publish
      ASSERT_LE(reread.value().size(), 1u);
      if (reread.value().size() == 1) {
        const MetricSeries& series = reread.value().all()[0];
        EXPECT_EQ(series.name, "loss");
        ASSERT_LE(series.samples.size(), total);
        for (std::size_t i = 0; i < series.samples.size(); ++i) {
          EXPECT_EQ(series.samples[i].step, static_cast<std::int64_t>(i));
          EXPECT_EQ(series.samples[i].value, static_cast<double>(i) * 0.5);
        }
        // The partial-read path recovers the same sealed prefix.
        auto partial = store.read_series(store_path, "loss", "TRAINING");
        ASSERT_TRUE(partial.ok()) << partial.error().to_string();
        EXPECT_EQ(partial.value().samples.size(), series.samples.size());
        saw_nonempty_prefix |= !series.samples.empty();
      }
      auto size = store.size_on_disk(store_path);
      ASSERT_TRUE(size.ok());
      EXPECT_GT(size.value(), 0u);
    }
  }
  // The sweep must include kill points late enough that data survived.
  EXPECT_TRUE(saw_nonempty_prefix);
}

TEST_F(StreamingTest, TailChunkLossTruncatesInsteadOfFailing) {
  // Simulate the on-disk state after a crash that published metadata ahead
  // of a chunk: drop the tail chunk of one column from a healthy store.
  ZarrMetricStore store(ZarrOptions{.chunk_length = 16});
  MetricSet set;
  MetricSeries& loss = set.series("loss", "TRAINING");
  for (std::int64_t i = 0; i < 40; ++i) loss.append(i, 1000 + i, 0.25 * i);
  const std::string p = path("torn.zarr");
  ASSERT_TRUE(store.write(set, p).ok());

  fs::remove(fs::path(p) / "s0_TRAINING_loss" / "value" / "2");  // samples 32..39
  auto reread = store.read(p);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  ASSERT_EQ(reread.value().size(), 1u);
  EXPECT_EQ(reread.value().all()[0].samples.size(), 32u);  // longest whole prefix
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(reread.value().all()[0].samples[i].step, static_cast<std::int64_t>(i));
  }
}

// ---------------------------------------------------------- streaming runs

TEST_F(StreamingTest, StreamingRunPersistsEverySample) {
  core::RunOptions options;
  options.provenance_dir = path("ok_run");
  options.metric_store = "zarr";
  options.sync_mode = core::MetricSyncMode::kStream;
  options.flush_chunk_length = 8;
  options.flush_queue_chunks = 2;  // tiny queue: exercise backpressure
  core::Experiment exp("stream");
  core::Run& run = exp.start_run(options, "r0");
  ASSERT_TRUE(run.streaming());
  const std::size_t total = 333;  // deliberately not a chunk multiple
  for (std::size_t i = 0; i < total; ++i) {
    run.log_metric("loss", 1.0 / (1.0 + static_cast<double>(i)),
                   static_cast<std::int64_t>(i));
    if (i % 3 == 0) {
      run.log_metric("acc", static_cast<double>(i) / total, static_cast<std::int64_t>(i),
                     core::contexts::kValidation);
    }
  }
  EXPECT_EQ(run.metrics().size(), 0u);  // samples not retained in memory
  ASSERT_TRUE(run.finish().ok());

  ZarrMetricStore store;
  auto reread = store.read(run.metric_store_path());
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  const MetricSeries* loss = reread.value().find("loss", core::contexts::kTraining);
  const MetricSeries* acc = reread.value().find("acc", core::contexts::kValidation);
  ASSERT_NE(loss, nullptr);
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(loss->samples.size(), total);
  EXPECT_EQ(acc->samples.size(), (total + 2) / 3);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(loss->samples[i].step, static_cast<std::int64_t>(i));
    EXPECT_EQ(loss->samples[i].value, 1.0 / (1.0 + static_cast<double>(i)));
  }

  // The PROV document still carries per-series sample counts.
  const prov::Element* metric =
      run.document().find_element("ex:metric/TRAINING/loss");
  ASSERT_NE(metric, nullptr);
  bool found = false;
  for (const auto& [key, value] : metric->attributes) {
    if (key == "provml:samples") {
      found = true;
      EXPECT_EQ(value.value.as_int(), static_cast<std::int64_t>(total));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(StreamingTest, StreamingRunMatchesBatchRunStoreContents) {
  auto drive = [&](core::MetricSyncMode mode, const std::string& prov) {
    core::RunOptions options;
    options.provenance_dir = prov;
    options.metric_store = "netcdf";
    options.sync_mode = mode;
    options.flush_chunk_length = 32;
    core::Experiment exp("ab");
    core::Run& run = exp.start_run(options, "r");
    for (std::int64_t i = 0; i < 500; ++i) {
      run.log_metric("loss", 2.0 - 0.001 * static_cast<double>(i), i);
    }
    EXPECT_TRUE(run.finish().ok());
    return run.metric_store_path();
  };
  const std::string batch = drive(core::MetricSyncMode::kBatch, path("ab_batch"));
  const std::string streamed = drive(core::MetricSyncMode::kStream, path("ab_stream"));

  NetcdfMetricStore store;
  auto a = store.read(batch);
  auto b = store.read(streamed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  const MetricSeries* sa = a.value().find("loss", core::contexts::kTraining);
  const MetricSeries* sb = b.value().find("loss", core::contexts::kTraining);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(sa->samples.size(), sb->samples.size());
  for (std::size_t i = 0; i < sa->samples.size(); ++i) {
    EXPECT_EQ(sa->samples[i].step, sb->samples[i].step);
    EXPECT_EQ(sa->samples[i].value, sb->samples[i].value);
  }
}

TEST_F(StreamingTest, EmbeddedStoreIgnoresStreamMode) {
  core::RunOptions options;
  options.provenance_dir = path("embedded");
  options.metric_store = "embedded";
  options.sync_mode = core::MetricSyncMode::kStream;
  core::Experiment exp("e");
  core::Run& run = exp.start_run(options, "r");
  EXPECT_FALSE(run.streaming());  // embedded needs samples in memory
  run.log_metric("loss", 1.0, 0);
  EXPECT_EQ(run.metrics().total_samples(), 1u);
  EXPECT_TRUE(run.finish().ok());
}

}  // namespace
}  // namespace provml::storage
