#include "provml/storage/zarr_store.hpp"

#include <cctype>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <utility>

#include "provml/common/file_io.hpp"
#include "provml/compress/container.hpp"
#include "provml/compress/varint.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"

namespace provml::storage {
namespace {

namespace fs = std::filesystem;
using compress::Bytes;

constexpr const char* kColumns[3] = {"step", "timestamp", "value"};
constexpr const char* kIntFilter = "delta-varint";

std::string sanitize_dir(std::size_t index, const std::string& key) {
  std::string out = "s" + std::to_string(index) + "_";
  for (const char c : key) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' || c == '-')
               ? c
               : '_';
  }
  return out;
}

/// Extracts one column of a chunk's samples as raw bytes ready for the
/// codec chain.
Bytes column_chunk_bytes(std::span<const MetricSample> samples, int column) {
  if (column == 2) {  // f64 values, little-endian memcpy
    Bytes out(samples.size() * sizeof(double));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      std::memcpy(out.data() + i * sizeof(double), &samples[i].value, sizeof(double));
    }
    return out;
  }
  std::vector<std::int64_t> values;
  values.reserve(samples.size());
  for (const MetricSample& s : samples) {
    values.push_back(column == 0 ? s.step : s.timestamp_ms);
  }
  return compress::pack_i64(values);
}

Status restore_column(MetricSeries& s, int column, std::size_t begin, std::size_t count,
                      const Bytes& raw) {
  if (column == 2) {
    // Division form: `count * sizeof(double)` would wrap for a forged count.
    if (raw.size() % sizeof(double) != 0 || raw.size() / sizeof(double) != count) {
      return Error{"value chunk size mismatch", s.key()};
    }
    // Grow only after the chunk's real byte count validated `count`, so the
    // listing's declared length can never force a huge allocation by itself.
    if (s.samples.size() < begin + count) s.samples.resize(begin + count);
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(&s.samples[begin + i].value, raw.data() + i * sizeof(double),
                  sizeof(double));
    }
    return Status::ok_status();
  }
  Expected<std::vector<std::int64_t>> values = compress::unpack_i64(raw, count);
  if (!values.ok()) return values.error();
  if (s.samples.size() < begin + count) s.samples.resize(begin + count);
  for (std::size_t i = 0; i < count; ++i) {
    (column == 0 ? s.samples[begin + i].step : s.samples[begin + i].timestamp_ms) =
        values.value()[i];
  }
  return Status::ok_status();
}

/// .zarray metadata for one column at the given logical length. Field
/// order matters: streaming re-publishes must end up byte-identical to the
/// batch writer's single publish.
json::Value zarray_json(std::uint64_t shape, std::size_t chunk_length, int column,
                        const std::string& col_codec) {
  return json::Value(json::make_object(
      {{"zarr_format", 2},
       {"shape", json::Array{json::Value(shape)}},
       {"chunks", json::Array{json::Value(chunk_length)}},
       {"dtype", column == 2 ? "<f8" : "<i8"},
       {"compressor", json::make_object({{"id", col_codec}})},
       {"filters", column == 2 ? json::Array{} : json::Array{json::Value(kIntFilter)}}}));
}

// --------------------------------------------------------------------- sink

/// Streaming writer for the chunked directory layout. Appends stage into a
/// per-series buffer; each time a buffer reaches chunk_length the chunk's
/// three columns are encoded and written on the calling thread before the
/// append returns, so the on-disk prefix is always contiguous.
class ZarrMetricSink final : public MetricSink {
 public:
  ZarrMetricSink(std::string root, const ZarrOptions& options, const SinkOptions& sink_options)
      : root_(std::move(root)),
        chunk_length_(sink_options.chunk_length != 0 ? sink_options.chunk_length
                                                     : options.chunk_length),
        codec_(options.compress ? options.codec : "raw"),
        int_codec_(options.compress ? options.int_codec : "raw") {}

  /// Claims the directory: overwrite semantics, like the batch writer.
  Status open() {
    std::error_code ec;
    fs::remove_all(root_, ec);
    if (!fs::create_directories(root_, ec) && ec) {
      return Error{"cannot create store directory: " + ec.message(), root_};
    }
    return json::write_file((fs::path(root_) / ".zgroup").string(),
                            json::Value(json::make_object({{"zarr_format", 2}})));
  }

  Expected<std::size_t> declare_series(const std::string& name, const std::string& context,
                                       const std::string& unit) override {
    if (sealed_) return Error{"sink already sealed", root_};
    const auto it = index_.find({context, name});
    if (it != index_.end()) {
      if (series_[it->second].unit.empty()) series_[it->second].unit = unit;
      return it->second;
    }
    SeriesState state;
    state.name = name;
    state.context = context;
    state.unit = unit;
    state.dir = sanitize_dir(series_.size(), context + "/" + name);
    series_.push_back(std::move(state));
    index_.emplace(std::make_pair(context, name), series_.size() - 1);
    return series_.size() - 1;
  }

  Status append(std::size_t series, const MetricSample& sample) override {
    return append_block(series, &sample, 1);
  }

  Status append_block(std::size_t series, const MetricSample* samples,
                      std::size_t count) override {
    if (sealed_) return Error{"sink already sealed", root_};
    if (series >= series_.size()) return Error{"append to undeclared series", root_};
    SeriesState& s = series_[series];
    for (std::size_t i = 0; i < count; ++i) {
      s.staged.push_back(samples[i]);
      ++s.total;
      if (s.staged.size() >= chunk_length_) {
        Status st = seal_chunk(series);
        if (!st.ok()) return st;
      }
    }
    return Status::ok_status();
  }

  Status flush() override {
    if (sealed_ || (!metadata_dirty_ && attrs_written_)) return Status::ok_status();
    return publish_metadata(/*final_shape=*/false);
  }

  Status seal() override {
    if (sealed_) return Status::ok_status();
    for (std::size_t i = 0; i < series_.size(); ++i) {
      // Partial tail chunk — and, matching the batch layout, one empty
      // chunk 0 for a series that never received a sample.
      if (!series_[i].staged.empty() || series_[i].total == 0) {
        Status st = seal_chunk(i);
        if (!st.ok()) return st;
      }
    }
    Status st = publish_metadata(/*final_shape=*/true);
    if (!st.ok()) return st;
    sealed_ = true;
    return Status::ok_status();
  }

 private:
  struct SeriesState {
    std::string name;
    std::string context;
    std::string unit;
    std::string dir;
    std::vector<MetricSample> staged;  ///< samples not yet in a sealed chunk
    std::uint64_t total = 0;           ///< samples appended
    std::uint64_t sealed = 0;          ///< samples whose chunk triple is on disk
    std::uint64_t published = 0;       ///< length covered by on-disk .zarray
    std::size_t chunks = 0;            ///< chunks sealed; names the next chunk file
    bool dirs_created = false;
  };

  Status ensure_dirs(SeriesState& s) {
    if (s.dirs_created) return Status::ok_status();
    for (const char* column : kColumns) {
      std::error_code ec;
      const fs::path col_dir = fs::path(root_) / s.dir / column;
      if (!fs::create_directories(col_dir, ec) && ec) {
        return Error{"cannot create column directory: " + ec.message(), col_dir.string()};
      }
    }
    s.dirs_created = true;
    return Status::ok_status();
  }

  /// Encodes the staged buffer's step, timestamp and value columns and
  /// writes each as the series' next chunk file.
  Status seal_chunk(std::size_t idx) {
    SeriesState& s = series_[idx];
    Status st = ensure_dirs(s);
    if (!st.ok()) return st;
    const std::vector<MetricSample> samples = std::move(s.staged);
    s.staged = {};
    const std::string chunk = std::to_string(s.chunks++);
    for (int column = 0; column < 3; ++column) {
      Expected<Bytes> packed =
          compress::pack(column_chunk_bytes(samples, column), column == 2 ? codec_ : int_codec_);
      if (!packed.ok()) return packed.error();
      st = io::write_file_atomic((fs::path(root_) / s.dir / kColumns[column] / chunk).string(),
                                 packed.value());
      if (!st.ok()) return st;
    }
    s.sealed += samples.size();
    metadata_dirty_ = true;
    return Status::ok_status();
  }

  /// Publishes .zarray for every series (shape = sealed prefix, or the
  /// full total at seal) and then the .zattrs listing — last, so it stays
  /// the batch commit point and, when streaming, never declares samples
  /// whose chunks are not on disk yet.
  Status publish_metadata(bool final_shape) {
    json::Array listing;
    for (SeriesState& s : series_) {
      const std::uint64_t len = final_shape ? s.total : s.sealed;
      if (len != s.published || !attrs_written_ || final_shape) {
        Status st = ensure_dirs(s);
        if (!st.ok()) return st;
        for (int column = 0; column < 3; ++column) {
          const std::string col_codec = column == 2 ? codec_ : int_codec_;
          const fs::path col_dir = fs::path(root_) / s.dir / kColumns[column];
          st = json::write_file((col_dir / ".zarray").string(),
                                zarray_json(len, chunk_length_, column, col_codec));
          if (!st.ok()) return st;
        }
        s.published = len;
      }
      listing.push_back(json::make_object({{"name", s.name},
                                           {"context", s.context},
                                           {"unit", s.unit},
                                           {"path", s.dir},
                                           {"length", json::Value(len)}}));
    }
    json::Object attrs;
    attrs.set("series", std::move(listing));
    Status st = json::write_file((fs::path(root_) / ".zattrs").string(),
                                 json::Value(std::move(attrs)));
    if (!st.ok()) return st;
    attrs_written_ = true;
    metadata_dirty_ = false;
    return Status::ok_status();
  }

  std::string root_;
  std::size_t chunk_length_;
  std::string codec_;
  std::string int_codec_;

  std::vector<SeriesState> series_;
  std::map<std::pair<std::string, std::string>, std::size_t> index_;  // (ctx, name)
  bool attrs_written_ = false;
  bool metadata_dirty_ = false;
  bool sealed_ = false;
};

}  // namespace

Expected<std::unique_ptr<MetricSink>> ZarrMetricStore::open_sink(
    const std::string& path, const SinkOptions& options) const {
  auto sink = std::make_unique<ZarrMetricSink>(path, options_, options);
  Status st = sink->open();
  if (!st.ok()) return st.error();
  return std::unique_ptr<MetricSink>(std::move(sink));
}

namespace {

/// Reads the .zattrs listing after checking the .zgroup format marker.
Expected<json::Value> read_listing(const std::string& path) {
  Expected<json::Value> group = json::parse_file((fs::path(path) / ".zgroup").string());
  if (!group.ok()) return group.error();
  const json::Value* zf = group.value().find("zarr_format");
  if (zf == nullptr || !zf->is_int() || zf->as_int() != 2) {
    return Error{"unsupported zarr_format", path};
  }
  Expected<json::Value> attrs = json::parse_file((fs::path(path) / ".zattrs").string());
  if (!attrs.ok()) return attrs;
  const json::Value* listing = attrs.value().find("series");
  if (listing == nullptr || !listing->is_array()) {
    return Error{"missing series listing in .zattrs", path};
  }
  return *listing;
}

/// Loads one series described by a listing entry into `series`. A store
/// abandoned by a killed streaming writer may declare more samples than
/// its chunk files cover; a missing *chunk* file truncates the series to
/// the longest prefix every column can serve. A missing .zarray or a
/// present-but-corrupt file is still a hard error (listed series publish
/// their .zarray before the listing, so a crash cannot lose one).
Status read_entry(const std::string& path, const json::Value& entry,
                  MetricSeries& series) {
  const json::Value* dir = entry.find("path");
  const json::Value* length = entry.find("length");
  if (dir == nullptr || length == nullptr || !length->is_int() || length->as_int() < 0) {
    return Error{"malformed series listing entry", path};
  }
  const auto n = static_cast<std::size_t>(length->as_int());
  // The samples vector grows chunk by chunk inside restore_column — each
  // extension is backed by bytes actually read from disk, so a forged
  // `length` alone cannot demand a giant allocation.

  std::size_t effective = n;  // min prefix across columns
  for (int column = 0; column < 3; ++column) {
    const fs::path col_dir = fs::path(path) / dir->as_string() / kColumns[column];
    std::error_code ec;
    // A series only enters the .zattrs listing after its .zarray files are
    // on disk, so a missing .zarray is corruption — not a crashed tail.
    Expected<json::Value> zarray = json::parse_file((col_dir / ".zarray").string());
    if (!zarray.ok()) return zarray.error();
    const json::Value* chunks = zarray.value().find("chunks");
    if (chunks == nullptr || !chunks->is_array() || chunks->as_array().empty() ||
        !chunks->as_array()[0].is_int()) {
      return Error{"malformed .zarray chunks", col_dir.string()};
    }
    if (chunks->as_array()[0].as_int() <= 0) {
      return Error{"non-positive chunk length", col_dir.string()};
    }
    const auto chunk_length = static_cast<std::size_t>(chunks->as_array()[0].as_int());

    std::size_t achieved = n;
    for (std::size_t begin = 0, chunk = 0; begin < n || chunk == 0;
         begin += chunk_length, ++chunk) {
      if (begin >= n && chunk > 0) break;
      const std::size_t end = std::min(begin + chunk_length, n);
      const fs::path chunk_path = col_dir / std::to_string(chunk);
      if (!fs::exists(chunk_path, ec)) {
        achieved = begin;  // missing tail chunk: the declared shape is stale
        break;
      }
      Expected<Bytes> packed = io::read_file(chunk_path.string());
      if (!packed.ok()) return packed.error();
      Expected<Bytes> raw = compress::unpack(packed.value());
      if (!raw.ok()) return raw.error();
      Status s = restore_column(series, column, begin, end - begin, raw.value());
      if (!s.ok()) return s;
      if (end == n) break;
    }
    effective = std::min(effective, achieved);
  }
  if (effective < n) {
    series.samples.resize(effective);
    return Status::ok_status();
  }
  if (series.samples.size() != n) {
    return Error{"series shorter than declared length", path};
  }
  return Status::ok_status();
}

}  // namespace

Expected<MetricSet> ZarrMetricStore::read(const std::string& path) const {
  Expected<json::Value> listing = read_listing(path);
  if (!listing.ok()) return listing.error();

  MetricSet out;
  for (const json::Value& entry : listing.value().as_array()) {
    const json::Value* name = entry.find("name");
    const json::Value* context = entry.find("context");
    if (name == nullptr || context == nullptr) {
      return Error{"malformed series listing entry", path};
    }
    const json::Value* unit = entry.find("unit");
    MetricSeries& series =
        out.series(name->as_string(), context->as_string(),
                   unit != nullptr && unit->is_string() ? unit->as_string() : "");
    Status s = read_entry(path, entry, series);
    if (!s.ok()) return s.error();
  }
  return out;
}

Expected<MetricSeries> ZarrMetricStore::read_series(const std::string& path,
                                                    const std::string& name,
                                                    const std::string& context) const {
  Expected<json::Value> listing = read_listing(path);
  if (!listing.ok()) return listing.error();
  for (const json::Value& entry : listing.value().as_array()) {
    const json::Value* entry_name = entry.find("name");
    const json::Value* entry_context = entry.find("context");
    if (entry_name == nullptr || entry_context == nullptr) continue;
    if (entry_name->as_string() != name || entry_context->as_string() != context) {
      continue;
    }
    const json::Value* unit = entry.find("unit");
    MetricSeries series;
    series.name = name;
    series.context = context;
    if (unit != nullptr && unit->is_string()) series.unit = unit->as_string();
    Status s = read_entry(path, entry, series);
    if (!s.ok()) return s.error();
    return series;
  }
  return Error{"series not found: " + context + "/" + name, path};
}

Expected<std::vector<std::pair<std::string, std::string>>> ZarrMetricStore::list_series(
    const std::string& path) const {
  Expected<json::Value> listing = read_listing(path);
  if (!listing.ok()) return listing.error();
  std::vector<std::pair<std::string, std::string>> out;
  for (const json::Value& entry : listing.value().as_array()) {
    const json::Value* name = entry.find("name");
    const json::Value* context = entry.find("context");
    if (name == nullptr || context == nullptr) continue;
    out.emplace_back(name->as_string(), context->as_string());
  }
  return out;
}

}  // namespace provml::storage
