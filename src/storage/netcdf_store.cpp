#include "provml/storage/netcdf_store.hpp"

#include <cstring>

#include "provml/common/file_io.hpp"
#include "provml/compress/container.hpp"
#include "provml/compress/varint.hpp"

namespace provml::storage {
namespace {

using compress::Bytes;

constexpr char kMagic[4] = {'P', 'N', 'C', '1'};

void append_string(Bytes& out, const std::string& s) {
  compress::varint_append(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

Expected<std::string> read_string(const Bytes& data, std::size_t& offset) {
  Expected<std::uint64_t> len = compress::varint_read(data, offset);
  if (!len.ok()) return len.error();
  // Subtraction form: `offset + len` would wrap for a forged 64-bit length.
  if (len.value() > data.size() - offset) return Error{"truncated string", "netcdf"};
  std::string s(reinterpret_cast<const char*>(data.data()) + offset,
                static_cast<std::size_t>(len.value()));
  offset += static_cast<std::size_t>(len.value());
  return s;
}

void append_block(Bytes& out, const Bytes& block) {
  compress::varint_append(out, block.size());
  out.insert(out.end(), block.begin(), block.end());
}

Expected<Bytes> read_block(const Bytes& data, std::size_t& offset) {
  Expected<std::uint64_t> len = compress::varint_read(data, offset);
  if (!len.ok()) return len.error();
  if (len.value() > data.size() - offset) return Error{"truncated block", "netcdf"};
  Bytes block(data.begin() + static_cast<std::ptrdiff_t>(offset),
              data.begin() + static_cast<std::ptrdiff_t>(offset + len.value()));
  offset += static_cast<std::size_t>(len.value());
  return block;
}

}  // namespace

namespace {

/// The batch serializer: assembles the whole single-file image. Both
/// write() (via the base-class sink loop) and streaming sinks funnel
/// through this, so their bytes cannot diverge.
Status encode_netcdf(const MetricSet& metrics,
                     const std::vector<std::pair<std::string, std::string>>& attributes,
                     const std::string& path) {
  Bytes out;
  out.insert(out.end(), kMagic, kMagic + 4);

  compress::varint_append(out, attributes.size());
  for (const auto& [key, value] : attributes) {
    append_string(out, key);
    append_string(out, value);
  }

  compress::varint_append(out, metrics.all().size());
  for (const MetricSeries& s : metrics.all()) {
    append_string(out, s.name);
    append_string(out, s.context);
    append_string(out, s.unit);
    compress::varint_append(out, s.samples.size());

    std::vector<std::int64_t> steps;
    std::vector<std::int64_t> timestamps;
    steps.reserve(s.samples.size());
    timestamps.reserve(s.samples.size());
    for (const MetricSample& sample : s.samples) {
      steps.push_back(sample.step);
      timestamps.push_back(sample.timestamp_ms);
    }
    // Integer columns: delta+zigzag+varint, then lzss inside the file.
    for (const auto* column : {&steps, &timestamps}) {
      Expected<Bytes> packed_ints = compress::pack(compress::pack_i64(*column), "lzss");
      if (!packed_ints.ok()) return packed_ints.error();
      append_block(out, packed_ints.value());
    }

    // Values are shuffle+lzss-compressed inside the file (NetCDF-4-style
    // internal deflate — the Table 1 behaviour this format reproduces).
    Bytes values(s.samples.size() * sizeof(double));
    for (std::size_t i = 0; i < s.samples.size(); ++i) {
      std::memcpy(values.data() + i * sizeof(double), &s.samples[i].value, sizeof(double));
    }
    Expected<Bytes> packed = compress::pack(values, "shuffle+lzss");
    if (!packed.ok()) return packed.error();
    append_block(out, packed.value());
  }
  return io::write_file_atomic(path, out);
}

}  // namespace

Expected<std::unique_ptr<MetricSink>> NetcdfMetricStore::open_sink(
    const std::string& path, const SinkOptions& /*options*/) const {
  // Single-file format with counts ahead of the data: buffer in the sink
  // and publish one atomic file at seal.
  const std::vector<std::pair<std::string, std::string>> attributes = attributes_;
  return std::unique_ptr<MetricSink>(new BufferedMetricSink(
      path, [attributes](const MetricSet& metrics, const std::string& dst) {
        return encode_netcdf(metrics, attributes, dst);
      }));
}

Expected<MetricSet> NetcdfMetricStore::read(const std::string& path) const {
  Expected<Bytes> file = io::read_file(path);
  if (!file.ok()) return file.error();
  const Bytes& data = file.value();
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Error{"bad netcdf-like magic", path};
  }
  std::size_t offset = 4;

  Expected<std::uint64_t> attr_count = compress::varint_read(data, offset);
  if (!attr_count.ok()) return attr_count.error();
  for (std::uint64_t i = 0; i < attr_count.value(); ++i) {
    Expected<std::string> key = read_string(data, offset);
    if (!key.ok()) return key.error();
    Expected<std::string> value = read_string(data, offset);
    if (!value.ok()) return value.error();
  }

  Expected<std::uint64_t> series_count = compress::varint_read(data, offset);
  if (!series_count.ok()) return series_count.error();

  MetricSet out;
  for (std::uint64_t i = 0; i < series_count.value(); ++i) {
    Expected<std::string> name = read_string(data, offset);
    if (!name.ok()) return name.error();
    Expected<std::string> context = read_string(data, offset);
    if (!context.ok()) return context.error();
    Expected<std::string> unit = read_string(data, offset);
    if (!unit.ok()) return unit.error();
    Expected<std::uint64_t> count = compress::varint_read(data, offset);
    if (!count.ok()) return count.error();
    const auto n = static_cast<std::size_t>(count.value());

    Expected<Bytes> packed_steps = read_block(data, offset);
    if (!packed_steps.ok()) return packed_steps.error();
    Expected<Bytes> step_block = compress::unpack(packed_steps.value());
    if (!step_block.ok()) return step_block.error();
    Expected<Bytes> packed_times = read_block(data, offset);
    if (!packed_times.ok()) return packed_times.error();
    Expected<Bytes> time_block = compress::unpack(packed_times.value());
    if (!time_block.ok()) return time_block.error();
    Expected<Bytes> packed_values = read_block(data, offset);
    if (!packed_values.ok()) return packed_values.error();
    Expected<Bytes> value_block = compress::unpack(packed_values.value());
    if (!value_block.ok()) return value_block.error();

    Expected<std::vector<std::int64_t>> steps = compress::unpack_i64(step_block.value(), n);
    if (!steps.ok()) return steps.error();
    Expected<std::vector<std::int64_t>> timestamps =
        compress::unpack_i64(time_block.value(), n);
    if (!timestamps.ok()) return timestamps.error();
    // Division form: `n * sizeof(double)` would wrap for a forged count.
    if (value_block.value().size() % sizeof(double) != 0 ||
        value_block.value().size() / sizeof(double) != n) {
      return Error{"value column size mismatch", path};
    }

    MetricSeries& series = out.series(name.value(), context.value(), unit.value());
    series.samples.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      series.samples[k].step = steps.value()[k];
      series.samples[k].timestamp_ms = timestamps.value()[k];
      std::memcpy(&series.samples[k].value, value_block.value().data() + k * sizeof(double),
                  sizeof(double));
    }
  }
  if (offset != data.size()) return Error{"trailing bytes after variables", path};
  return out;
}

Expected<std::vector<std::pair<std::string, std::string>>> NetcdfMetricStore::read_attributes(
    const std::string& path) {
  Expected<Bytes> file = io::read_file(path);
  if (!file.ok()) return file.error();
  const Bytes& data = file.value();
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Error{"bad netcdf-like magic", path};
  }
  std::size_t offset = 4;
  Expected<std::uint64_t> attr_count = compress::varint_read(data, offset);
  if (!attr_count.ok()) return attr_count.error();
  std::vector<std::pair<std::string, std::string>> attrs;
  for (std::uint64_t i = 0; i < attr_count.value(); ++i) {
    Expected<std::string> key = read_string(data, offset);
    if (!key.ok()) return key.error();
    Expected<std::string> value = read_string(data, offset);
    if (!value.ok()) return value.error();
    attrs.emplace_back(key.take(), value.take());
  }
  return attrs;
}

}  // namespace provml::storage
