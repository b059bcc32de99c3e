#include "metrics.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr double kUnpublished = std::numeric_limits<double>::quiet_NaN();

double pct(Samples& samples, double p) { return samples.percentile(p).value_or(kUnpublished); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A median, or 0 when there are too few samples to publish one.
double med(Samples& samples) { return samples.percentile(50).value_or(0.0); }

Cls request_class(const char* name) {
  if (std::strcmp(name, "req.put") == 0) return kPut;
  if (std::strncmp(name, "req.lineage", 11) == 0) return kLineage;
  if (std::strncmp(name, "req.match", 9) == 0) return kMatch;
  if (std::strcmp(name, "req.get") == 0) return kGet;
  if (std::strcmp(name, "req.revalidate") == 0) return kRevalidate;
  return kPage;
}

}  // namespace

void add_delta(CounterSnapshot& sum, const CounterSnapshot& from, const CounterSnapshot& to) {
  sum.at_ns += to.at_ns - from.at_ns;
  sum.server.requests_handled += to.server.requests_handled - from.server.requests_handled;
  sum.server.parse_errors += to.server.parse_errors - from.server.parse_errors;
  sum.server.read_timeouts += to.server.read_timeouts - from.server.read_timeouts;
  sum.server.connections_shed += to.server.connections_shed - from.server.connections_shed;
  sum.server.epoll_wakeups += to.server.epoll_wakeups - from.server.epoll_wakeups;
  sum.server.writev_batches += to.server.writev_batches - from.server.writev_batches;
  sum.app.cache_hits += to.app.cache_hits - from.app.cache_hits;
  sum.app.cache_misses += to.app.cache_misses - from.app.cache_misses;
  sum.app.responses_304 += to.app.responses_304 - from.app.responses_304;
  sum.wal.appends += to.wal.appends - from.wal.appends;
  sum.wal.fsyncs += to.wal.fsyncs - from.wal.fsyncs;
  sum.wal.fsync_us_total += to.wal.fsync_us_total - from.wal.fsync_us_total;
  sum.wal.appended_bytes += to.wal.appended_bytes - from.wal.appended_bytes;
  sum.wal.compactions += to.wal.compactions - from.wal.compactions;
}

Aggregate aggregate(const std::vector<ClientLog>& logs, Workload workload,
                    const std::vector<Window>& windows) {
  Aggregate a;
  std::unordered_map<int, std::int64_t> end_of_phase;
  for (const Window& w : windows) {
    a.wall += std::chrono::nanoseconds(w.end_ns - w.start_ns);
    end_of_phase[w.phase] = w.end_ns;
  }
  const auto in_window = [&end_of_phase](int phase, std::int64_t end_ns) {
    const auto it = end_of_phase.find(phase);
    return it != end_of_phase.end() && end_ns <= it->second;
  };
  const bool sweep = workload == Workload::kSweepIngest;
  for (const ClientLog& log : logs) {
    for (const OpRecord& op : log.ops) {
      if (!in_window(op.phase, op.end_ns)) continue;
      const double ms = static_cast<double>(op.end_ns - op.start_ns) / 1e6;
      a.cls_ms[op.cls].add(ms);
      if (sweep ? op.cls == kRun : is_read_request(op.cls)) {
        ++a.closed_ops;
        a.op_ms.add(ms);
      }
      // On sweep_ingest the PUT is the last step of its run; count the run.
      if (!(sweep && op.cls == kPut)) a.count.record(op.ok);
      if (is_read_request(op.cls)) {
        ++a.read_requests;
        a.read_bytes += op.bytes;
        if (op.cls == kRevalidate) ++a.conditional_gets;
      } else if (op.cls == kPut) {
        ++a.puts;
        a.put_bytes += op.bytes;
        if (!sweep) a.late_ms.add(static_cast<double>(op.late_ns) / 1e6);
      } else if (op.cls == kDrain) {
        ++a.drains;
        a.restarts += op.restarts;
        a.drain_rows += op.rows;
      }
    }
    for (const RunRecord& run : log.runs) {
      if (!in_window(run.phase, run.end_ns)) continue;
      ++a.runs;
      a.samples += run.samples;
      a.store_bytes += run.store_bytes;
      a.prov_bytes += run.prov_bytes;
      a.store_files += run.store_files;
      a.elements += run.elements;
    }
  }
  return a;
}

std::vector<Metric> end_to_end_metrics(std::vector<Aggregate>& slices, double setup_s,
                                       double peak_rss_mb) {
  const auto over_slices = [&slices](auto value) {
    std::vector<double> values;
    for (Aggregate& slice : slices) values.push_back(value(slice));
    for (const double v : values) {
      if (!std::isfinite(v)) return kUnpublished;
    }
    return median(values);
  };
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", over_slices([](Aggregate& w) { return w.throughput(); }), "1/s"},
      {"op_p50_ms", over_slices([](Aggregate& w) { return pct(w.op_ms, 50); }), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> named_metrics(Aggregate& w, Workload workload) {
  std::vector<Metric> out;
  if (workload == Workload::kSweepIngest) {
    out.push_back({"runs_per_s", w.throughput(), "1/s"});
    out.push_back({"run_p50_ms", pct(w.cls_ms[kRun], 50), "ms"});
    out.push_back({"run_p99_ms", pct(w.cls_ms[kRun], 99), "ms"});
    out.push_back({"store_bytes_per_sample",
                   ratio(static_cast<double>(w.store_bytes + w.prov_bytes),
                         static_cast<double>(w.samples)),
                   "B"});
  } else {
    out.push_back({"reads_per_s", w.throughput(), "1/s"});
    out.push_back({"lineage_p50_ms", pct(w.cls_ms[kLineage], 50), "ms"});
    out.push_back({"lineage_p99_ms", pct(w.cls_ms[kLineage], 99), "ms"});
    out.push_back({"match_p50_ms", pct(w.cls_ms[kMatch], 50), "ms"});
    out.push_back({"match_p99_ms", pct(w.cls_ms[kMatch], 99), "ms"});
    out.push_back({"drain_p50_ms", pct(w.cls_ms[kDrain], 50), "ms"});
    out.push_back({"drain_p90_ms", pct(w.cls_ms[kDrain], 90), "ms"});
  }
  if (workload != Workload::kExploreRead) {
    out.push_back({"put_p50_ms", pct(w.cls_ms[kPut], 50), "ms"});
    out.push_back({"put_p99_ms", pct(w.cls_ms[kPut], 99), "ms"});
  }
  out.push_back({"failed_ratio", w.count.failed_ratio(), "ratio"});
  return out;
}

std::vector<Metric> self_times(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::int64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.duration_ns();
  }
  std::map<std::string, Samples> by_name;
  for (const Span& span : spans) {
    const auto it = child_ns.find(span.id);
    const std::int64_t self = span.duration_ns() - (it == child_ns.end() ? 0 : it->second);
    by_name[span.name].add(static_cast<double>(self) / 1e6);
  }
  std::vector<Metric> out;
  for (auto& [name, samples] : by_name) out.push_back({"self." + name, med(samples), "ms"});
  return out;
}

std::vector<Metric> per_layer_metrics(Aggregate& traced, Aggregate& untraced, Aggregate& measured,
                                      const std::vector<Span>& spans,
                                      const CounterSnapshot& counters,
                                      const LogTiming& log_timing, Workload workload) {
  // Span tree: children by parent id.
  std::unordered_map<SpanId, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  auto kids = [&](SpanId id) -> const std::vector<const Span*>& {
    static const std::vector<const Span*> none;
    const auto it = children.find(id);
    return it == children.end() ? none : it->second;
  };

  Samples run_ms, open_ms, sim_self_us, logging_ms, epoch_log_ms, encode_ms, finish_ms;
  Samples put_handler_us, put_overhead_us;
  Samples read_overhead_us;
  // Per request span name (one cache behaviour each): client, overhead
  // and handler samples, for the read accounting share.
  struct ReadClass {
    Samples client_ms, overhead_us, handler_us;
  };
  std::map<std::string, ReadClass> read_classes;
  Samples handler_us[kClsCount];
  for (const Span& span : spans) {
    const double dur_ms = static_cast<double>(span.duration_ns()) / 1e6;
    if (std::strcmp(span.name, "run") == 0) {
      run_ms.add(dur_ms);
      for (const Span* child : kids(span.id)) {
        const double child_ms = static_cast<double>(child->duration_ns()) / 1e6;
        if (std::strcmp(child->name, "core.open") == 0) open_ms.add(child_ms);
        if (std::strcmp(child->name, "prov.encode") == 0) encode_ms.add(child_ms);
        if (std::strcmp(child->name, "core.finish") == 0) finish_ms.add(child_ms);
        if (std::strcmp(child->name, "sim.train") == 0) {
          double observer_ms = 0.0;
          for (const Span* burst : kids(child->id)) {
            observer_ms += static_cast<double>(burst->duration_ns()) / 1e6;
          }
          sim_self_us.add((child_ms - observer_ms) * 1e3);
          logging_ms.add(observer_ms);
        }
      }
    } else if (std::strcmp(span.name, "core.epoch_log") == 0) {
      epoch_log_ms.add(dur_ms);
    } else if (std::strncmp(span.name, "req.", 4) == 0) {
      const Span* handler = nullptr;
      for (const Span* child : kids(span.id)) {
        if (std::strcmp(child->name, "handler") == 0) handler = child;
      }
      if (handler == nullptr) continue;
      const double handler_us_v = static_cast<double>(handler->duration_ns()) / 1e3;
      const double overhead_us = dur_ms * 1e3 - handler_us_v;
      const Cls cls = request_class(span.name);
      handler_us[cls].add(handler_us_v);
      if (cls == kPut) {
        put_handler_us.add(handler_us_v);
        put_overhead_us.add(overhead_us);
      } else {
        read_overhead_us.add(overhead_us);
        ReadClass& rc = read_classes[span.name];
        rc.client_ms.add(dur_ms);
        rc.overhead_us.add(overhead_us);
        rc.handler_us.add(handler_us_v);
      }
    }
  }

  // How much of the client-observed median the blocking-path layers'
  // medians account for.
  double accounted = 0.0;
  if (workload == Workload::kSweepIngest) {
    accounted = ratio(med(open_ms) + med(sim_self_us) / 1e3 + med(logging_ms) + med(encode_ms) +
                          med(finish_ms) + (med(put_overhead_us) + med(put_handler_us)) / 1e3,
                      med(run_ms));
  } else {
    // Medians compose only within one kind of request: sum each span
    // name's medians, weighted by its request count.
    double parts = 0.0;
    double whole = 0.0;
    for (auto& [name, rc] : read_classes) {
      const auto n = static_cast<double>(rc.client_ms.size());
      parts += n * (med(rc.overhead_us) + med(rc.handler_us)) / 1e3;
      whole += n * med(rc.client_ms);
    }
    accounted = ratio(parts, whole);
  }

  const auto d = [](std::uint64_t count) { return static_cast<double>(count); };
  const double handled = d(counters.server.requests_handled);
  const double hits = d(counters.app.cache_hits);
  const double misses = d(counters.app.cache_misses);
  const double appends = d(counters.wal.appends);
  const double fsyncs = d(counters.wal.fsyncs);
  const double fsync_us = d(counters.wal.fsync_us_total);
  const double window_us = static_cast<double>(counters.at_ns) / 1e3;
  const double net_errors = d(counters.server.parse_errors + counters.server.read_timeouts +
                              counters.server.connections_shed);

  const double runs = static_cast<double>(traced.runs);
  const double samples = static_cast<double>(traced.samples);
  std::vector<Metric> out = {
      {"sim.train_us", pct(sim_self_us, 50), "us"},
      {"core.log_metric_ns",
       ratio(static_cast<double>(log_timing.ns), static_cast<double>(log_timing.calls)), "ns"},
      {"core.epoch_log_p99_ms", pct(epoch_log_ms, 99), "ms"},
      {"core.finish_p50_ms", pct(finish_ms, 50), "ms"},
      {"core.finish_p99_ms", pct(finish_ms, 99), "ms"},
      {"core.runs", runs, "count"},
      {"storage.files_per_run", ratio(static_cast<double>(traced.store_files), runs), "count"},
      {"storage.bytes_per_sample", ratio(static_cast<double>(traced.store_bytes), samples), "B"},
      {"compress.ratio", ratio(24.0 * samples, static_cast<double>(traced.store_bytes)), "ratio"},
      {"prov.elements_per_run", ratio(static_cast<double>(traced.elements), runs), "count"},
      {"json.put_body_bytes",
       ratio(static_cast<double>(traced.put_bytes), static_cast<double>(traced.puts)), "B"},
      {"json.read_body_bytes",
       ratio(static_cast<double>(traced.read_bytes), static_cast<double>(traced.read_requests)),
       "B"},
      {"client.read_requests", static_cast<double>(traced.read_requests), "count"},
      {"net.overhead_p50_us", pct(read_overhead_us, 50), "us"},
      {"net.overhead_p99_us", pct(read_overhead_us, 99), "us"},
      {"net.put_overhead_p50_us", pct(put_overhead_us, 50), "us"},
      {"net.wakeups_per_request", ratio(d(counters.server.epoll_wakeups), handled), "ratio"},
      {"net.writev_share", ratio(d(counters.server.writev_batches), handled), "ratio"},
      {"net.errors", net_errors, "count"},
      {"graphstore.put_p50_us", pct(put_handler_us, 50), "us"},
      {"graphstore.put_p99_us", pct(put_handler_us, 99), "us"},
      {"graphstore.lineage_p50_us", pct(handler_us[kLineage], 50), "us"},
      {"graphstore.lineage_p99_us", pct(handler_us[kLineage], 99), "us"},
      {"graphstore.match_p50_us", pct(handler_us[kMatch], 50), "us"},
      {"graphstore.match_p99_us", pct(handler_us[kMatch], 99), "us"},
      {"graphstore.page_p50_us", pct(handler_us[kPage], 50), "us"},
      {"graphstore.page_p99_us", pct(handler_us[kPage], 99), "us"},
      {"graphstore.get_p50_us", pct(handler_us[kGet], 50), "us"},
      {"graphstore.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"graphstore.revalidated_304_ratio",
       ratio(d(counters.app.responses_304), static_cast<double>(traced.conditional_gets)),
       "ratio"},
      {"graphstore.restarts_per_drain",
       ratio(static_cast<double>(traced.restarts), static_cast<double>(traced.drains)), "ratio"},
      {"graphstore.rows_per_drain",
       ratio(static_cast<double>(traced.drain_rows), static_cast<double>(traced.drains)),
       "count"},
      {"wal.appends", appends, "count"},
      {"wal.fsyncs_per_append", ratio(fsyncs, appends), "ratio"},
      {"wal.fsync_mean_us", ratio(fsync_us, fsyncs), "us"},
      {"wal.fsync_busy_share", ratio(fsync_us, window_us), "ratio"},
      {"wal.bytes_per_append", ratio(d(counters.wal.appended_bytes), appends), "B"},
      {"wal.compactions", d(counters.wal.compactions), "count"},
      {"gen.late_p90_ms", pct(measured.late_ms, 90), "ms"},
      {"trace.overhead", ratio(traced.throughput(), untraced.throughput()), "ratio"},
      {"trace.accounted_share", accounted, "ratio"},
  };
  // The untraced slices' named figures under an "e2e." prefix, every name
  // on every workload (0 where this workload has no such figure).
  std::map<std::string, double> named;
  for (const Metric& m : named_metrics(untraced, workload)) named[m.name] = m.value;
  std::set<std::string> listed;
  Aggregate none;
  for (const Workload w : {Workload::kSweepIngest, Workload::kExploreRead, Workload::kLiveMixed}) {
    for (const Metric& m : named_metrics(none, w)) {
      if (!listed.insert(m.name).second) continue;
      const auto it = named.find(m.name);
      out.push_back({"e2e." + m.name, it != named.end() ? it->second : 0.0, m.unit});
    }
  }
  return out;
}

}  // namespace perfbench
