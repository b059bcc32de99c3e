#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "provml/common/file_io.hpp"
#include "provml/compress/crc32.hpp"
#include "provml/storage/json_store.hpp"
#include "provml/storage/netcdf_store.hpp"
#include "provml/storage/series.hpp"
#include "provml/storage/store.hpp"
#include "provml/storage/zarr_store.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::storage {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("provml_storage_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

MetricSet sample_metrics(std::size_t samples_per_series = 500) {
  MetricSet set;
  std::mt19937_64 rng(42);
  std::normal_distribution<double> noise(0.0, 0.01);
  MetricSeries& loss = set.series("loss", "TRAINING");
  MetricSeries& energy = set.series("gpu_energy", "TRAINING", "J");
  MetricSeries& val_loss = set.series("loss", "VALIDATION");
  for (std::size_t i = 0; i < samples_per_series; ++i) {
    const auto step = static_cast<std::int64_t>(i);
    const std::int64_t ts = 1700000000000 + step * 250;
    loss.append(step, ts, 2.0 * std::exp(-0.001 * static_cast<double>(i)) + noise(rng));
    energy.append(step, ts, 350.0 + 10.0 * noise(rng));
    if (i % 10 == 0) val_loss.append(step, ts, 2.1 * std::exp(-0.001 * static_cast<double>(i)));
  }
  return set;
}

// ------------------------------------------------------------------ series

TEST(MetricSetTest, SeriesCreatesOnceByNameAndContext) {
  MetricSet set;
  MetricSeries& a = set.series("loss", "TRAINING");
  MetricSeries& b = set.series("loss", "TRAINING");
  MetricSeries& c = set.series("loss", "VALIDATION");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(MetricSetTest, UnitFilledInLazily) {
  MetricSet set;
  set.series("power", "TRAINING");
  MetricSeries& s = set.series("power", "TRAINING", "W");
  EXPECT_EQ(s.unit, "W");
}

TEST(MetricSetTest, FindReturnsNullWhenAbsent) {
  MetricSet set;
  set.series("loss", "TRAINING");
  EXPECT_NE(set.find("loss", "TRAINING"), nullptr);
  EXPECT_EQ(set.find("loss", "TESTING"), nullptr);
  EXPECT_EQ(set.find("nope", "TRAINING"), nullptr);
}

TEST(MetricSetTest, TotalSamples) {
  const MetricSet set = sample_metrics(100);
  EXPECT_EQ(set.total_samples(), 100u + 100u + 10u);
}

TEST(MetricSeriesTest, KeyFormat) {
  MetricSeries s{"loss", "TRAINING", "", {}};
  EXPECT_EQ(s.key(), "TRAINING/loss");
}

// ---------------------------------------------------------------- registry

TEST(StoreRegistryTest, BuiltinsPresent) {
  auto& reg = StoreRegistry::global();
  for (const char* name : {"json", "zarr", "netcdf"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto store = reg.create(name);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->format_name(), name);
  }
  EXPECT_EQ(reg.create("parquet"), nullptr);
}

// ------------------------------------------------------------- round trips

class StoreRoundTrip : public StorageTest,
                       public ::testing::WithParamInterface<std::string> {};

TEST_P(StoreRoundTrip, WriteReadPreservesEverything) {
  const auto store = StoreRegistry::global().create(GetParam());
  ASSERT_NE(store, nullptr);
  const MetricSet original = sample_metrics();
  const std::string p = path("metrics" + store->path_suffix());
  ASSERT_TRUE(store->write(original, p).ok());
  Expected<MetricSet> back = store->read(p);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), original);
}

TEST_P(StoreRoundTrip, EmptySetRoundTrips) {
  const auto store = StoreRegistry::global().create(GetParam());
  const std::string p = path("empty" + store->path_suffix());
  ASSERT_TRUE(store->write(MetricSet{}, p).ok());
  Expected<MetricSet> back = store->read(p);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_TRUE(back.value().empty());
}

TEST_P(StoreRoundTrip, EmptySeriesRoundTrips) {
  const auto store = StoreRegistry::global().create(GetParam());
  MetricSet set;
  set.series("never_logged", "TRAINING", "J");
  const std::string p = path("zero" + store->path_suffix());
  ASSERT_TRUE(store->write(set, p).ok());
  Expected<MetricSet> back = store->read(p);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back.value().size(), 1u);
  EXPECT_EQ(back.value().all()[0].samples.size(), 0u);
  EXPECT_EQ(back.value().all()[0].unit, "J");
}

TEST_P(StoreRoundTrip, SpecialFloatValuesSurvive) {
  // NaN breaks JSON (becomes null) — the binary formats must preserve all
  // finite extremes; JSON must preserve finite extremes too.
  const auto store = StoreRegistry::global().create(GetParam());
  MetricSet set;
  MetricSeries& s = set.series("extremes", "TESTING");
  s.append(0, 0, 0.0);
  s.append(1, 1, -0.0);
  s.append(2, 2, std::numeric_limits<double>::max());
  s.append(3, 3, std::numeric_limits<double>::denorm_min());
  s.append(4, 4, -1e-300);
  const std::string p = path("extremes" + store->path_suffix());
  ASSERT_TRUE(store->write(set, p).ok());
  Expected<MetricSet> back = store->read(p);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const MetricSeries* rs = back.value().find("extremes", "TESTING");
  ASSERT_NE(rs, nullptr);
  ASSERT_EQ(rs->samples.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rs->samples[i].value, s.samples[i].value) << "sample " << i;
  }
}

TEST_P(StoreRoundTrip, ReadMissingPathFails) {
  const auto store = StoreRegistry::global().create(GetParam());
  EXPECT_FALSE(store->read(path("does_not_exist" + store->path_suffix())).ok());
}

INSTANTIATE_TEST_SUITE_P(Formats, StoreRoundTrip,
                         ::testing::Values("json", "zarr", "netcdf"),
                         [](const auto& info) { return info.param; });

// --------------------------------------------------------------- zarr extra

TEST_F(StorageTest, ZarrChunkBoundaries) {
  // chunk_length exactly divides, off-by-one, and single-chunk cases.
  for (const std::size_t n : {1u, 7u, 8u, 9u, 16u}) {
    ZarrOptions opts;
    opts.chunk_length = 8;
    ZarrMetricStore store(opts);
    MetricSet set;
    MetricSeries& s = set.series("m", "C");
    for (std::size_t i = 0; i < n; ++i) {
      s.append(static_cast<std::int64_t>(i), static_cast<std::int64_t>(i * 10),
               static_cast<double>(i) * 0.5);
    }
    const std::string p = path("chunks_" + std::to_string(n) + ".zarr");
    ASSERT_TRUE(store.write(set, p).ok());
    Expected<MetricSet> back = store.read(p);
    ASSERT_TRUE(back.ok()) << n << ": " << back.error().to_string();
    EXPECT_EQ(back.value(), set) << n;
  }
}

TEST_F(StorageTest, ZarrLayoutOnDisk) {
  ZarrMetricStore store;
  const MetricSet set = sample_metrics(50);
  const std::string p = path("layout.zarr");
  ASSERT_TRUE(store.write(set, p).ok());
  EXPECT_TRUE(fs::exists(fs::path(p) / ".zgroup"));
  EXPECT_TRUE(fs::exists(fs::path(p) / ".zattrs"));
  EXPECT_TRUE(fs::exists(fs::path(p) / "s0_TRAINING_loss" / "value" / ".zarray"));
  EXPECT_TRUE(fs::exists(fs::path(p) / "s0_TRAINING_loss" / "value" / "0"));
}

TEST_F(StorageTest, ZarrOverwriteReplacesOldStore) {
  ZarrMetricStore store;
  const std::string p = path("overwrite.zarr");
  ASSERT_TRUE(store.write(sample_metrics(100), p).ok());
  MetricSet small;
  small.series("only", "C").append(1, 1, 1.0);
  ASSERT_TRUE(store.write(small, p).ok());
  Expected<MetricSet> back = store.read(p);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 1u);  // no leftovers from the first write
}

TEST_F(StorageTest, ZarrCompressionShrinksSmoothSeries) {
  ZarrOptions compressed;
  ZarrOptions uncompressed;
  uncompressed.compress = false;
  const MetricSet set = sample_metrics(20000);
  const std::string pc = path("c.zarr");
  const std::string pu = path("u.zarr");
  ASSERT_TRUE(ZarrMetricStore(compressed).write(set, pc).ok());
  ASSERT_TRUE(ZarrMetricStore(uncompressed).write(set, pu).ok());
  const auto sc = path_size_bytes(pc);
  const auto su = path_size_bytes(pu);
  ASSERT_TRUE(sc.ok());
  ASSERT_TRUE(su.ok());
  EXPECT_LT(sc.value(), su.value());
}

TEST_F(StorageTest, ZarrCorruptChunkDetected) {
  ZarrMetricStore store;
  const MetricSet set = sample_metrics(100);
  const std::string p = path("corrupt.zarr");
  ASSERT_TRUE(store.write(set, p).ok());
  // Flip a byte in a value chunk: CRC in the container must catch it.
  const fs::path chunk = fs::path(p) / "s0_TRAINING_loss" / "value" / "0";
  auto data = ::provml::io::read_file(chunk.string()).take();
  data[data.size() / 2] ^= 0xFF;
  ASSERT_TRUE(::provml::io::write_file_atomic(chunk.string(), data).ok());
  EXPECT_FALSE(store.read(p).ok());
}

/// Size and CRC-32 of every regular file under `root`, keyed by its path
/// relative to root.
std::map<std::string, std::pair<std::uint64_t, std::uint32_t>> file_digests(
    const std::string& root) {
  std::map<std::string, std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    auto data = ::provml::io::read_file(entry.path().string());
    EXPECT_TRUE(data.ok()) << entry.path();
    if (!data.ok()) continue;
    out[fs::relative(entry.path(), root).generic_string()] = {data.value().size(),
                                                              compress::crc32(data.value())};
  }
  return out;
}

// The Zarr bytes, pinned: a fixed generated set, written batch and streamed
// with a flush() after every chunk, must reproduce this table of file sizes
// and CRC-32s. A rewrite of the sink or the codecs that changes one stored
// byte fails here; regenerate the table only for a deliberate format change.
TEST_F(StorageTest, ZarrStoreBytesArePinned) {
  struct PinnedFile {
    const char* path;
    std::uint64_t size;
    std::uint32_t crc;
  };
  static constexpr PinnedFile kPinned[] = {
      {".zattrs", 191, 0x890292b8},
      {".zgroup", 18, 0x2f1588f1},
      {"s0_TRAINING_h439_6t0/step/.zarray", 113, 0x8d3b526b},
      {"s0_TRAINING_h439_6t0/step/0", 40, 0x999ba01a},
      {"s0_TRAINING_h439_6t0/timestamp/.zarray", 113, 0x8d3b526b},
      {"s0_TRAINING_h439_6t0/timestamp/0", 65, 0x751d1066},
      {"s0_TRAINING_h439_6t0/value/.zarray", 107, 0xec33e407},
      {"s0_TRAINING_h439_6t0/value/0", 30, 0xc613e792},
      {"s1_TESTING_vm1/step/.zarray", 114, 0x737016c9},
      {"s1_TESTING_vm1/step/0", 85, 0x22b9d86b},
      {"s1_TESTING_vm1/step/1", 86, 0x023499ad},
      {"s1_TESTING_vm1/step/2", 73, 0x025189c7},
      {"s1_TESTING_vm1/timestamp/.zarray", 114, 0x737016c9},
      {"s1_TESTING_vm1/timestamp/0", 166, 0xdb561323},
      {"s1_TESTING_vm1/timestamp/1", 165, 0x0783b645},
      {"s1_TESTING_vm1/timestamp/2", 135, 0x773ca7e6},
      {"s1_TESTING_vm1/value/.zarray", 108, 0x426d7262},
      {"s1_TESTING_vm1/value/0", 565, 0x0b254107},
      {"s1_TESTING_vm1/value/1", 545, 0xe0f9c55a},
      {"s1_TESTING_vm1/value/2", 480, 0xce81b46a},
  };
  constexpr std::size_t kChunk = 64;
  testkit::Rng rng(3);
  const MetricSet set = testkit::gen_metric_set(rng, {.max_series = 4, .max_samples = 300});
  const ZarrMetricStore store(ZarrOptions{.chunk_length = kChunk});

  const std::string batch = path("pin_batch.zarr");
  ASSERT_TRUE(store.write(set, batch).ok());

  const std::string streamed = path("pin_stream.zarr");
  {
    auto sink = store.open_sink(streamed);
    ASSERT_TRUE(sink.ok());
    std::vector<std::size_t> ids;
    for (const MetricSeries& series : set.all()) {
      auto id = sink.value()->declare_series(series.name, series.context, series.unit);
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    std::size_t longest = 0;
    for (const MetricSeries& series : set.all()) {
      longest = std::max(longest, series.samples.size());
    }
    for (std::size_t begin = 0; begin < longest; begin += kChunk) {
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::vector<MetricSample>& samples = set.all()[k].samples;
        if (begin >= samples.size()) continue;
        const std::size_t count = std::min(kChunk, samples.size() - begin);
        ASSERT_TRUE(sink.value()->append_block(ids[k], samples.data() + begin, count).ok());
        ASSERT_TRUE(sink.value()->flush().ok());
      }
    }
    ASSERT_TRUE(sink.value()->seal().ok());
  }

  for (const std::string& root : {batch, streamed}) {
    const auto digests = file_digests(root);
    std::string table;
    for (const auto& [file, digest] : digests) {
      char row[160];
      std::snprintf(row, sizeof row, "      {\"%s\", %llu, 0x%08x},\n", file.c_str(),
                    static_cast<unsigned long long>(digest.first), digest.second);
      table += row;
    }
    ASSERT_EQ(digests.size(), std::size(kPinned)) << root << " holds:\n" << table;
    for (const PinnedFile& pinned : kPinned) {
      const auto it = digests.find(pinned.path);
      ASSERT_NE(it, digests.end()) << root << " lacks " << pinned.path;
      EXPECT_EQ(it->second.first, pinned.size) << root << ": " << pinned.path;
      EXPECT_EQ(it->second.second, pinned.crc) << root << ": " << pinned.path;
    }
  }
}

// ------------------------------------------------------------- netcdf extra

TEST_F(StorageTest, NetcdfGlobalAttributes) {
  NetcdfMetricStore store;
  store.set_attribute("experiment", "modis_fm");
  store.set_attribute("run", "0");
  const std::string p = path("attrs.nc");
  ASSERT_TRUE(store.write(sample_metrics(10), p).ok());
  auto attrs = NetcdfMetricStore::read_attributes(p);
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs.value().size(), 2u);
  EXPECT_EQ(attrs.value()[0].first, "experiment");
  EXPECT_EQ(attrs.value()[0].second, "modis_fm");
}

TEST_F(StorageTest, NetcdfRejectsTruncatedFile) {
  NetcdfMetricStore store;
  const std::string p = path("trunc.nc");
  ASSERT_TRUE(store.write(sample_metrics(100), p).ok());
  auto data = ::provml::io::read_file(p).take();
  data.resize(data.size() / 2);
  ASSERT_TRUE(::provml::io::write_file_atomic(p, data).ok());
  EXPECT_FALSE(store.read(p).ok());
}

TEST_F(StorageTest, NetcdfRejectsTrailingGarbage) {
  NetcdfMetricStore store;
  const std::string p = path("extra.nc");
  ASSERT_TRUE(store.write(sample_metrics(10), p).ok());
  auto data = ::provml::io::read_file(p).take();
  data.push_back(0x42);
  ASSERT_TRUE(::provml::io::write_file_atomic(p, data).ok());
  EXPECT_FALSE(store.read(p).ok());
}

// --------------------------------------------- Table 1 shape (micro version)

TEST_F(StorageTest, FormatSizesFollowPaperOrdering) {
  // Table 1: json (39.82 MB) >> zarr (2.74 MB) ≈ nc (2.35 MB). Sizes differ
  // on our synthetic data but the ordering must hold.
  const MetricSet set = sample_metrics(20000);
  std::map<std::string, std::uint64_t> sizes;
  for (const char* fmt : {"json", "zarr", "netcdf"}) {
    const auto store = StoreRegistry::global().create(fmt);
    const std::string p = path(std::string("t1") + store->path_suffix());
    ASSERT_TRUE(store->write(set, p).ok());
    sizes[fmt] = store->size_on_disk(p).take();
  }
  EXPECT_GT(sizes["json"], 5 * sizes["zarr"]);
  EXPECT_GT(sizes["json"], 5 * sizes["netcdf"]);
}

TEST_F(StorageTest, PathSizeBytesOnMissingPathFails) {
  EXPECT_FALSE(path_size_bytes(path("ghost")).ok());
}



TEST_F(StorageTest, ZarrPartialReadTouchesOneSeries) {
  ZarrMetricStore store;
  const MetricSet set = sample_metrics(200);
  const std::string p = path("partial.zarr");
  ASSERT_TRUE(store.write(set, p).ok());

  auto listing = store.list_series(p);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value().size(), 3u);

  auto series = store.read_series(p, "gpu_energy", "TRAINING");
  ASSERT_TRUE(series.ok()) << series.error().to_string();
  EXPECT_EQ(series.value().samples.size(), 200u);
  EXPECT_EQ(series.value().unit, "J");
  EXPECT_EQ(series.value(), *set.find("gpu_energy", "TRAINING"));

  EXPECT_FALSE(store.read_series(p, "nope", "TRAINING").ok());

  // Deleting another series' chunks must not break the partial read —
  // proof that only the requested series is touched.
  fs::remove_all(fs::path(p) / "s0_TRAINING_loss");
  EXPECT_TRUE(store.read_series(p, "gpu_energy", "TRAINING").ok());
  EXPECT_FALSE(store.read(p).ok());  // the full read does need it
}

// -------------------------------------------------------- property: stores

class StoreProperty
    : public StorageTest,
      public ::testing::WithParamInterface<std::tuple<std::string, unsigned>> {};

TEST_P(StoreProperty, RandomSetsRoundTrip) {
  const auto& [format, seed] = GetParam();
  std::mt19937_64 rng(seed);
  const auto store = StoreRegistry::global().create(format);
  MetricSet set;
  std::uniform_int_distribution<int> n_series(0, 5);
  std::uniform_int_distribution<int> n_samples(0, 3000);
  std::uniform_real_distribution<double> value(-1e9, 1e9);
  const int ns = n_series(rng);
  for (int i = 0; i < ns; ++i) {
    MetricSeries& s = set.series("metric_" + std::to_string(i),
                                 i % 2 == 0 ? "TRAINING" : "VALIDATION");
    const int n = n_samples(rng);
    for (int k = 0; k < n; ++k) {
      s.append(k, 1700000000000 + k * 17, value(rng));
    }
  }
  const std::string p = path("prop_" + format + "_" + std::to_string(seed) +
                             store->path_suffix());
  ASSERT_TRUE(store->write(set, p).ok());
  Expected<MetricSet> back = store->read(p);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), set);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreProperty,
    ::testing::Combine(::testing::Values("json", "zarr", "netcdf"),
                       ::testing::Range(0u, 5u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace provml::storage
