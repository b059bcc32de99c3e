// Zarr-like chunked directory store. Layout (mirrors Zarr v2 in spirit):
//   <root>/.zgroup                     {"zarr_format": 2}
//   <root>/.zattrs                     {"series": [ {name, context, unit}... ]}
//   <root>/<series-key>/<column>/.zarray   metadata: shape, chunks, dtype,
//                                          compressor, filter
//   <root>/<series-key>/<column>/<n>       chunk files, container-framed
// Columns per series: "step" (i64), "timestamp" (i64), "value" (f64).
// Integer columns pass through delta+zigzag+varint before the codec; value
// columns use the codec directly (shuffle+lzss by default).
#pragma once

#include "provml/storage/store.hpp"

namespace provml::storage {

struct ZarrOptions {
  std::size_t chunk_length = 4096;        ///< samples per chunk
  std::string codec = "shuffle+lzss";     ///< codec for f64 columns
  std::string int_codec = "lzss";         ///< codec applied after varint packing
  bool compress = true;                   ///< false = "raw" codec everywhere
};

class ZarrMetricStore final : public MetricStore {
 public:
  explicit ZarrMetricStore(ZarrOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string format_name() const override { return "zarr"; }
  [[nodiscard]] std::string path_suffix() const override { return ".zarr"; }

  /// Chunked streaming sink. Each completed chunk's three columns are
  /// encoded and written with write_file_atomic on the appending thread.
  /// flush() refreshes .zarray/.zattrs to cover the chunks on disk, so a
  /// killed process leaves a readable sample prefix; a writer that never
  /// flushes keeps the final .zattrs written at seal() as its
  /// all-or-nothing commit point.
  [[nodiscard]] Expected<std::unique_ptr<MetricSink>> open_sink(
      const std::string& path, const SinkOptions& options = {}) const override;

  /// Tolerates a crashed streaming writer: a missing tail chunk or a
  /// series listing ahead of the chunks on disk truncates the result to
  /// the longest complete prefix instead of erroring. Corrupt chunk
  /// *content* still fails (CRC/size checks), so bitrot is never
  /// silently shortened away.
  [[nodiscard]] Expected<MetricSet> read(const std::string& path) const override;

  /// Partial read — the reason chunked stores exist: loads exactly one
  /// series (all its chunks, nothing else) without touching the other
  /// series' files.
  [[nodiscard]] Expected<MetricSeries> read_series(const std::string& path,
                                                   const std::string& name,
                                                   const std::string& context) const;

  /// Series listing (name, context) pairs from .zattrs, without data I/O.
  [[nodiscard]] Expected<std::vector<std::pair<std::string, std::string>>> list_series(
      const std::string& path) const;

 private:
  ZarrOptions options_;
};

}  // namespace provml::storage
