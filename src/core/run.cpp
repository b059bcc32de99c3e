#include "provml/core/run.hpp"

#include <filesystem>
#include <thread>

#include <unistd.h>

#include "provml/common/strings.hpp"
#include "provml/common/file_io.hpp"
#include "provml/prov/dot.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/prov/prov_n.hpp"
#include "provml/rocrate/crate.hpp"
#include "provml/storage/json_store.hpp"
#include "provml/storage/store.hpp"

namespace provml::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kProvmlNamespace = "https://provml.dev/ns#";
constexpr const char* kSystemContext = "SYSTEM";

std::string role_string(IoRole role) {
  return role == IoRole::kInput ? "input" : "output";
}

}  // namespace

Run::Run(std::string experiment_name, std::string run_name, RunOptions options)
    : experiment_name_(std::move(experiment_name)),
      run_name_(std::move(run_name)),
      options_(std::move(options)),
      started_ms_(sysmon::now_ms()) {
  if (options_.sync_mode == MetricSyncMode::kStream &&
      options_.metric_store != "embedded") {
    open_stream();  // before the sampler: its readings flow through the sink
  }
  if (options_.collect_system_metrics) {
    sampler_ = std::make_unique<sysmon::Sampler>(options_.sampling_period);
    for (const std::string& name : options_.collectors) {
      if (auto collector = sysmon::CollectorRegistry::global().create(name)) {
        sampler_->add_collector(std::move(collector));
      }
    }
    sampler_->start([this](const std::string&, const sysmon::Reading& reading,
                           std::int64_t ts) {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Step = number of samples already in the series, streaming or not.
      const std::int64_t step =
          streaming_
              ? static_cast<std::int64_t>(
                    stream_series_locked(reading.metric, kSystemContext, reading.unit)
                        .count)
              : static_cast<std::int64_t>(
                    metrics_.series(reading.metric, kSystemContext, reading.unit).size());
      append_metric_locked(reading.metric, kSystemContext, reading.unit, step, ts,
                           reading.value);
    });
  }
}

Run::~Run() {
  if (!finished_) (void)finish();
}

std::string Run::metric_store_path() const {
  if (options_.metric_store == "embedded") return "";
  const auto store = storage::StoreRegistry::global().create(options_.metric_store);
  return (fs::path(options_.provenance_dir) /
          (run_name_ + "_metrics" + (store ? store->path_suffix() : "")))
      .string();
}

void Run::open_stream() {
  stream_store_ = storage::StoreRegistry::global().create(options_.metric_store);
  if (stream_store_ == nullptr) {
    stream_status_ = Error{"unknown metric store: " + options_.metric_store, run_name_};
    return;  // finish() reports it; logging degrades to the batch buffer
  }
  std::error_code ec;
  fs::create_directories(options_.provenance_dir, ec);
  if (ec) {
    stream_status_ =
        Error{"cannot create provenance dir: " + ec.message(), options_.provenance_dir};
    return;
  }
  Expected<std::unique_ptr<storage::MetricSink>> sink =
      stream_store_->open_sink(metric_store_path(),
                               {.chunk_length = options_.flush_chunk_length});
  if (!sink.ok()) {
    stream_status_ = sink.error();
    return;
  }
  sink_ = sink.take();
  flush_queue_ = std::make_unique<common::BoundedQueue<MetricChunk>>(
      options_.flush_queue_chunks);
  streaming_ = true;
  flusher_ = std::thread([this] { flusher_loop(); });
}

void Run::flusher_loop() {
  while (std::optional<MetricChunk> chunk = flush_queue_->pop()) {
    if (!stream_status_.ok()) continue;  // drain + drop after the first error
    Expected<std::size_t> id =
        sink_->declare_series(chunk->name, chunk->context, chunk->unit);
    if (!id.ok()) {
      stream_status_ = id.error();
      continue;
    }
    Status s = sink_->append_block(id.value(), chunk->samples.data(),
                                   chunk->samples.size());
    if (s.ok()) s = sink_->flush();  // publish completed chunks durably
    if (!s.ok()) stream_status_ = s;
  }
}

Run::StreamSeries& Run::stream_series_locked(const std::string& name,
                                             const std::string& context,
                                             const std::string& unit) {
  const auto it = stream_index_.find({context, name});
  if (it != stream_index_.end()) {
    StreamSeries& series = *stream_series_[it->second];
    if (series.unit.empty()) series.unit = unit;
    return series;
  }
  auto series = std::make_unique<StreamSeries>();
  series->name = name;
  series->context = context;
  series->unit = unit;
  stream_series_.push_back(std::move(series));
  stream_index_.emplace(std::make_pair(context, name), stream_series_.size() - 1);
  return *stream_series_.back();
}

void Run::append_metric_locked(const std::string& name, const std::string& context,
                               const std::string& unit, std::int64_t step,
                               std::int64_t timestamp_ms, double value) {
  if (!streaming_) {
    metrics_.series(name, context, unit).append(step, timestamp_ms, value);
    return;
  }
  StreamSeries& series = stream_series_locked(name, context, unit);
  series.staged.push_back({step, timestamp_ms, value});
  ++series.count;
  if (series.staged.size() >= options_.flush_chunk_length) {
    MetricChunk chunk{series.name, series.context, series.unit,
                      std::move(series.staged)};
    series.staged = {};
    // Blocks when the flusher is behind: backpressure instead of unbounded
    // buffering. The flusher never takes mutex_, so it keeps draining.
    (void)flush_queue_->push(std::move(chunk));
  }
}

void Run::log_param(const std::string& name, json::Value value, IoRole role) {
  const std::lock_guard<std::mutex> lock(mutex_);
  parameters_.push_back(Parameter{name, std::move(value), role});
}

void Run::log_metric(const std::string& name, double value, std::int64_t step,
                     const std::string& context, const std::string& unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  append_metric_locked(name, context, unit, step, sysmon::now_ms(), value);
}

void Run::log_artifact(const std::string& name, const std::string& path, IoRole role,
                       const std::string& context) {
  const std::lock_guard<std::mutex> lock(mutex_);
  artifacts_.push_back(Artifact{name, path, role, context});
}

void Run::log_source_code(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  source_code_ = path;
}

void Run::log_environment() {
  char hostname[256] = "unknown";
  (void)::gethostname(hostname, sizeof hostname - 1);
  std::error_code ec;
  const std::string cwd = fs::current_path(ec).string();
  const std::lock_guard<std::mutex> lock(mutex_);
  environment_.clear();
  environment_.emplace_back("hostname", json::Value(std::string(hostname)));
  environment_.emplace_back("pid", json::Value(static_cast<std::int64_t>(::getpid())));
  environment_.emplace_back("cwd", json::Value(cwd));
  environment_.emplace_back(
      "hardware_concurrency",
      json::Value(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
}

void Run::begin_epoch(const std::string& context, int epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  epochs_[context].push_back(EpochRecord{epoch, sysmon::now_ms(), 0});
}

void Run::end_epoch(const std::string& context, int epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = epochs_[context].rbegin(); it != epochs_[context].rend(); ++it) {
    if (it->index == epoch && it->end_ms == 0) {
      it->end_ms = sysmon::now_ms();
      return;
    }
  }
  // end without begin: record a zero-length epoch, better than dropping it
  epochs_[context].push_back(EpochRecord{epoch, sysmon::now_ms(), sysmon::now_ms()});
}

std::string Run::provenance_path() const {
  return (fs::path(options_.provenance_dir) / (run_name_ + ".provjson")).string();
}

void Run::build_document() {
  prov::Document doc;
  doc.declare_namespace("provml", kProvmlNamespace);
  doc.declare_namespace("ex", "urn:provml:" + experiment_name_ + "/");

  const std::string agent_id = "ex:" + options_.user;
  const std::string experiment_id = "ex:experiment";
  const std::string run_id = "ex:" + run_name_;

  doc.add_agent(agent_id, {{"prov:type", "prov:Person"},
                           {"provml:username", options_.user}});
  doc.add_entity(experiment_id, {{"prov:type", "provml:Experiment"},
                                 {"provml:name", experiment_name_}});
  doc.add_activity(run_id,
                   {{"prov:type", "provml:RunExecution"},
                    {"provml:run_name", run_name_}},
                   strings::iso8601_utc(started_ms_), strings::iso8601_utc(finished_ms_));
  doc.was_associated_with(run_id, agent_id);
  doc.add_relation(prov::RelationKind::kWasStartedBy, run_id, experiment_id,
                   strings::iso8601_utc(started_ms_));
  doc.was_attributed_to(experiment_id, agent_id);

  // Contexts present in metrics or epochs each become a sub-activity.
  auto context_activity = [&](const std::string& context) {
    const std::string id = run_id + "/" + context;
    if (doc.find_element(id) == nullptr) {
      doc.add_activity(id, {{"prov:type", "provml:Context"},
                            {"provml:context", context}});
      doc.was_informed_by(id, run_id);
    }
    return id;
  };

  // Epoch activities under their context (Figure 2's innermost level).
  for (const auto& [context, records] : epochs_) {
    const std::string ctx_id = context_activity(context);
    for (const EpochRecord& epoch : records) {
      const std::string epoch_id = ctx_id + "/epoch_" + std::to_string(epoch.index);
      doc.add_activity(epoch_id,
                       {{"prov:type", "provml:Epoch"},
                        {"provml:epoch", epoch.index},
                        {"provml:duration_ms",
                         static_cast<std::int64_t>(epoch.end_ms - epoch.start_ms)}},
                       strings::iso8601_utc(epoch.start_ms),
                       epoch.end_ms > 0 ? strings::iso8601_utc(epoch.end_ms) : "");
      doc.was_informed_by(epoch_id, ctx_id);
    }
  }

  // Parameters: inputs are used by the run, outputs generated by it.
  for (const Parameter& param : parameters_) {
    const std::string param_id = "ex:param/" + param.name;
    doc.add_entity(param_id, {{"prov:type", "provml:Parameter"},
                              {"provml:name", param.name},
                              {"provml:value", prov::AttributeValue{param.value}},
                              {"provml:role", role_string(param.role)}});
    if (param.role == IoRole::kInput) {
      doc.used(run_id, param_id, strings::iso8601_utc(started_ms_));
    } else {
      doc.was_generated_by(param_id, run_id, strings::iso8601_utc(finished_ms_));
    }
  }

  // Metric series: one entity per series, generated by its context. When a
  // side store is configured, series carry a pointer to it; "embedded"
  // inlines every sample (the Table 1 baseline). In streaming mode only
  // the lightweight per-series records exist — the samples are already on
  // disk — so entities are built from those.
  struct SeriesInfo {
    const std::string* name;
    const std::string* context;
    const std::string* unit;
    std::uint64_t count;
    const storage::MetricSeries* data;  ///< nullptr when streaming
  };
  std::vector<SeriesInfo> series_infos;
  if (streaming_) {
    series_infos.reserve(stream_series_.size());
    for (const auto& s : stream_series_) {
      series_infos.push_back({&s->name, &s->context, &s->unit, s->count, nullptr});
    }
  } else {
    series_infos.reserve(metrics_.size());
    for (const storage::MetricSeries& s : metrics_.all()) {
      series_infos.push_back({&s.name, &s.context, &s.unit, s.size(), &s});
    }
  }

  const bool embedded = options_.metric_store == "embedded";
  std::string store_id;
  if (!embedded && !series_infos.empty()) {
    store_id = "ex:metric_store";
    const auto store = storage::StoreRegistry::global().create(options_.metric_store);
    const std::string store_file =
        run_name_ + "_metrics" + (store ? store->path_suffix() : "");
    doc.add_entity(store_id, {{"prov:type", "provml:MetricStore"},
                              {"provml:format", options_.metric_store},
                              {"provml:path", store_file}});
    doc.was_generated_by(store_id, run_id, strings::iso8601_utc(finished_ms_));
  }
  for (const SeriesInfo& series : series_infos) {
    const std::string ctx_id = context_activity(*series.context);
    const std::string metric_id = "ex:metric/" + *series.context + "/" + *series.name;
    prov::Attributes attrs{{"prov:type", "provml:Metric"},
                           {"provml:name", *series.name},
                           {"provml:context", *series.context},
                           {"provml:samples", static_cast<std::int64_t>(series.count)}};
    if (!series.unit->empty()) attrs.emplace_back("provml:unit", *series.unit);
    if (embedded && series.data != nullptr) {
      json::Array samples;
      samples.reserve(series.data->samples.size());
      for (const storage::MetricSample& s : series.data->samples) {
        samples.push_back(json::make_object(
            {{"step", s.step}, {"time", s.timestamp_ms}, {"value", s.value}}));
      }
      attrs.emplace_back("provml:data", prov::AttributeValue{json::Value(std::move(samples))});
    }
    doc.add_entity(metric_id, std::move(attrs));
    doc.was_generated_by(metric_id, ctx_id);
    if (!store_id.empty()) doc.had_member(store_id, metric_id);
  }

  // Artifacts: inputs are used, outputs generated — by their context's
  // activity when one is named, by the run otherwise (paper Figure 1 shows
  // both relationship kinds).
  for (const Artifact& artifact : artifacts_) {
    const std::string artifact_id = "ex:artifact/" + artifact.name;
    doc.add_entity(artifact_id, {{"prov:type", "provml:Artifact"},
                                 {"provml:path", artifact.path},
                                 {"provml:role", role_string(artifact.role)}});
    const std::string subject =
        artifact.context.empty() ? run_id : context_activity(artifact.context);
    if (artifact.role == IoRole::kInput) {
      doc.used(subject, artifact_id);
    } else {
      doc.was_generated_by(artifact_id, subject);
    }
  }

  if (source_code_) {
    doc.add_entity("ex:source_code", {{"prov:type", "provml:SourceCode"},
                                      {"provml:path", *source_code_}});
    doc.used(run_id, "ex:source_code", strings::iso8601_utc(started_ms_));
  }

  if (!environment_.empty()) {
    prov::Attributes attrs{{"prov:type", "provml:Environment"}};
    for (const auto& [key, value] : environment_) {
      attrs.emplace_back("provml:" + key, prov::AttributeValue{value});
    }
    doc.add_entity("ex:environment", std::move(attrs));
    doc.used(run_id, "ex:environment", strings::iso8601_utc(started_ms_));
  }

  document_ = std::move(doc);
}

Status Run::finish() {
  if (finished_) return Status::ok_status();
  if (sampler_) sampler_->stop();
  finished_ms_ = sysmon::now_ms();
  finished_ = true;

  const std::lock_guard<std::mutex> lock(mutex_);

  std::error_code ec;
  fs::create_directories(options_.provenance_dir, ec);
  if (ec) return Error{"cannot create provenance dir: " + ec.message(),
                       options_.provenance_dir};

  build_document();

  // Metric side store. Streaming: hand the staged tails to the flusher,
  // drain it, and seal — the bulk of the data is already on disk. Batch:
  // the whole set is serialized here (through the same sink machinery,
  // via MetricStore::write).
  if (streaming_) {
    for (const auto& series : stream_series_) {
      if (series->staged.empty()) continue;
      MetricChunk chunk{series->name, series->context, series->unit,
                        std::move(series->staged)};
      series->staged = {};
      (void)flush_queue_->push(std::move(chunk));
    }
    flush_queue_->close();
    if (flusher_.joinable()) flusher_.join();
    Status s = stream_status_;  // flusher has exited: safe to read
    if (s.ok()) s = sink_->seal();
    if (!s.ok()) return s;
  } else if (!stream_status_.ok()) {
    return stream_status_;  // streaming was requested but never opened
  } else if (options_.metric_store != "embedded" && !metrics_.empty()) {
    const auto store = storage::StoreRegistry::global().create(options_.metric_store);
    if (store == nullptr) {
      return Error{"unknown metric store: " + options_.metric_store, run_name_};
    }
    Status s = store->write(metrics_, metric_store_path());
    if (!s.ok()) return s;
  }

  Status s = prov::write_prov_json_file(provenance_path(), document_, options_.pretty_json);
  if (!s.ok()) return s;

  if (options_.write_prov_n) {
    const std::string text = prov::to_prov_n(document_);
    std::string path =
        (fs::path(options_.provenance_dir) / (run_name_ + ".provn")).string();
    s = io::write_text_atomic(path, text);
    if (!s.ok()) return s;
  }
  if (options_.write_dot) {
    const std::string text = prov::to_dot(document_);
    std::string path = (fs::path(options_.provenance_dir) / (run_name_ + ".dot")).string();
    s = io::write_text_atomic(path, text);
    if (!s.ok()) return s;
  }

  if (options_.create_rocrate) {
    rocrate::CrateBuilder crate(options_.provenance_dir);
    crate.set_name(experiment_name_ + "/" + run_name_)
        .set_description("provml run artifacts");
    crate.add_author(options_.user);
    s = crate.add_all();
    if (!s.ok()) return s;
    s = crate.write();
    if (!s.ok()) return s;
  }
  return Status::ok_status();
}

Run& Experiment::start_run(RunOptions options, const std::string& run_name) {
  std::string name = run_name.empty() ? "run_" + std::to_string(next_run_++) : run_name;
  runs_.push_back(std::unique_ptr<Run>(new Run(name_, std::move(name), std::move(options))));
  return *runs_.back();
}

prov::Document Experiment::combined_document() const {
  prov::Document doc;
  doc.declare_namespace("provml", kProvmlNamespace);
  doc.declare_namespace("ex", "urn:provml:" + name_ + "/");
  doc.add_entity("ex:experiment", {{"prov:type", "provml:Experiment"},
                                   {"provml:name", name_},
                                   {"provml:runs", static_cast<std::int64_t>(runs_.size())}});
  for (const auto& run : runs_) {
    if (!run->finished()) continue;
    doc.bundle("ex:" + run->name()) = run->document();
  }
  return doc;
}

Status Experiment::write_combined_provenance(const std::string& path, bool pretty) const {
  return prov::write_prov_json_file(path, combined_document(), pretty);
}

Status Experiment::finish_all() {
  for (const auto& run : runs_) {
    if (!run->finished()) {
      Status s = run->finish();
      if (!s.ok()) return s;
    }
  }
  return Status::ok_status();
}

}  // namespace provml::core
