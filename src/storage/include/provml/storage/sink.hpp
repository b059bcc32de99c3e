// Streaming metric write path: open a sink, append samples as training
// produces them, seal on finish. This is the primitive the batch
// MetricStore::write() is built on — batch is just "declare every series,
// append every sample, seal" — so streaming and batch writes produce
// byte-identical stores by construction.
//
// Durability contract:
//   * Chunked stores (zarr) write every completed chunk with
//     write_file_atomic before the append that completed it returns, and
//     flush() republishes their metadata to cover those chunks, so a
//     process killed mid-run leaves a store whose flushed prefix reads
//     back. A writer that never calls flush() (the batch
//     MetricStore::write()) publishes its metadata once, at seal(), so a
//     failed overwrite never exposes a half-new store.
//   * Single-file stores (json, netcdf) cannot append durably; they
//     buffer in the sink and publish one atomic file at seal(). A crash
//     before seal() loses the metrics but never leaves a torn file.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "provml/common/expected.hpp"
#include "provml/storage/series.hpp"

namespace provml::storage {

struct SinkOptions {
  /// Chunked stores: samples per on-disk chunk, overriding the store's
  /// configured default (0 keeps the default). The streaming run path sets
  /// this to its flush granularity so durability advances with each flush
  /// instead of waiting for the store's (much larger) batch chunk size.
  std::size_t chunk_length = 0;
};

/// Append-oriented writer for one store file/directory. Not thread-safe:
/// exactly one thread (the caller, or the run's background flusher) drives
/// a sink. Sinks own any partially written on-disk state until seal().
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  /// Registers a series and returns its dense id for appends. Declaring
  /// the same (name, context) again returns the existing id (and fills in
  /// a previously empty unit, mirroring MetricSet::series). Declaration
  /// order is the on-store series order.
  [[nodiscard]] virtual Expected<std::size_t> declare_series(const std::string& name,
                                                             const std::string& context,
                                                             const std::string& unit) = 0;

  /// Appends one sample to a declared series.
  [[nodiscard]] virtual Status append(std::size_t series, const MetricSample& sample) = 0;

  /// Bulk append; default loops over append().
  [[nodiscard]] virtual Status append_block(std::size_t series, const MetricSample* samples,
                                            std::size_t count);

  /// Publishes completed work where the format allows it (chunked stores
  /// refresh their metadata to cover every chunk written so far).
  /// No-op for buffering sinks.
  [[nodiscard]] virtual Status flush() = 0;

  /// Writes remaining data and final metadata; the sink accepts no
  /// appends afterwards. Idempotent.
  [[nodiscard]] virtual Status seal() = 0;
};

/// Buffering sink for single-file formats: accumulates a MetricSet in
/// memory and hands it to `writer` (the format's batch serializer) at
/// seal(). Guarantees byte-identical batch/streaming output trivially —
/// both funnel through the same serializer with the same series order.
class BufferedMetricSink final : public MetricSink {
 public:
  using Writer = std::function<Status(const MetricSet&, const std::string&)>;

  BufferedMetricSink(std::string path, Writer writer)
      : path_(std::move(path)), writer_(std::move(writer)) {}

  [[nodiscard]] Expected<std::size_t> declare_series(const std::string& name,
                                                     const std::string& context,
                                                     const std::string& unit) override;
  [[nodiscard]] Status append(std::size_t series, const MetricSample& sample) override;
  [[nodiscard]] Status append_block(std::size_t series, const MetricSample* samples,
                                    std::size_t count) override;
  [[nodiscard]] Status flush() override { return Status::ok_status(); }
  [[nodiscard]] Status seal() override;

 private:
  std::string path_;
  Writer writer_;
  MetricSet set_;
  std::vector<MetricSeries*> by_id_;  // dense id → series (stable: heap-backed)
  bool sealed_ = false;
};

}  // namespace provml::storage
