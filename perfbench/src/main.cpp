// perfbench_e2e — one end-to-end run of the provenance pipeline against
// an in-process yProv server:
//
//   perfbench_e2e --workload sweep_ingest|explore_read|live_mixed
//                 --seed N --seconds S --trace 0|1 --scratch DIR
//                 [--trace-out FILE]
//
// Set-up generates the seeded inputs (running the write path for the
// preload documents), then opens a copy of the preloaded WAL store and
// starts the server several times, timing each (setup_s is the median).
// The clients then run a warm-up second and the measured window. With
// --trace 1 the window is split: an untraced half (for trace.overhead)
// and a traced half that yields the per-layer metrics. Every run checks
// its outputs against oracles; the last stdout line is a JSON object
// {"correct", "attempted", "failed", "metrics"} and the exit code is
// non-zero when any check failed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/wal/wal.hpp"
#include "setup.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kClients = 4;
constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr double kZipfExponent = 1.0;  // assumed run popularity, not measured

/// Untraced slices of the window; the end-to-end metrics are medians over
/// them. Outside load on a shared host comes in bursts of a few seconds,
/// so the read workloads use half-second slices: a burst then costs the
/// median a few of many slices. A sweep slice must hold enough runs (20
/// to 80 a second) to publish its median run latency, so sweep_ingest
/// keeps eight.
int slice_count(Workload workload, double seconds) {
  if (workload == Workload::kSweepIngest) return 8;
  return std::max(8, static_cast<int>(std::lround(seconds / 0.5)));
}

struct Args {
  Workload workload = Workload::kSweepIngest;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload_name = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      error = "unknown option " + key;
      return false;
    }
  }
  if (args.workload_name == "sweep_ingest") {
    args.workload = Workload::kSweepIngest;
  } else if (args.workload_name == "explore_read") {
    args.workload = Workload::kExploreRead;
  } else if (args.workload_name == "live_mixed") {
    args.workload = Workload::kLiveMixed;
  } else {
    error = "--workload must be sweep_ingest, explore_read or live_mixed";
    return false;
  }
  if (args.scratch.empty()) error = "--scratch is required";
  if (!(args.seconds >= 1.0)) error = "--seconds must be >= 1";
  return error.empty();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Restarts VmHWM at the current RSS, so peak_rss_mb covers the workload
/// window and not set-up.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return static_cast<bool>(clear_refs);
}

/// Flushes the filesystem holding `dir`, so the write-back of earlier file
/// churn (copies, deleted run stores, an earlier run's files) happens
/// before a timed phase and not inside its fsyncs.
void settle_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

CounterSnapshot snapshot(BenchServer& server) {
  return {now_ns(), server.http().stats(), server.app().counters(),
          server.app().service().wal_stats()};
}

void sleep_until_ns(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

/// Removes the scratch tree however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Fetches each cohort's one-shot /api/v0/query table: the drain oracle.
bool fetch_drain_oracles(Context& ctx, const Inputs& inputs, std::string& error) {
  net::HttpClient client("127.0.0.1", ctx.port);
  for (std::size_t c = 0; c < kCohorts; ++c) {
    DrainOracle& oracle = ctx.drains[c];
    oracle.query = drain_query(cohort_name(c));
    oracle.rows = inputs.cohort_rows[c];
    provml::Expected<net::HttpResponse> response = client.post("/api/v0/query", oracle.query);
    if (!response.ok() || response.value().status != 200) {
      error = "one-shot drain query failed";
      return false;
    }
    provml::Expected<json::Value> parsed = json::parse(response.value().body);
    const json::Value* rows = parsed.ok() ? parsed.value().find("rows") : nullptr;
    if (rows == nullptr || !rows->is_array()) {
      error = "one-shot drain table unparseable";
      return false;
    }
    std::vector<std::string> serialized;
    for (const json::Value& row : rows->as_array()) serialized.push_back(json::write(row));
    if (serialized.size() != oracle.rows || oracle.rows < 1000) {
      error = "cohort " + std::to_string(c) + " table has " + std::to_string(serialized.size()) +
              " rows, expected " + std::to_string(oracle.rows) + " (>= 1000)";
      return false;
    }
    oracle.ordered_hash = ordered_rows_hash(serialized);
    oracle.sorted_hash = sorted_rows_hash(std::move(serialized));
  }
  return true;
}

/// Recovers the WAL store from disk, as YProvService::load does before
/// rebuilding its graph, and compares the document set with what was
/// acknowledged: preload plus every acknowledged PUT, byte for byte.
bool check_recovery(const std::string& data_dir, const Inputs& inputs,
                    const std::vector<ClientLog>& logs, std::string& error) {
  provml::Expected<provml::wal::RecoveredState> recovered = provml::wal::recover(data_dir);
  if (!recovered.ok()) {
    error = "recovering " + data_dir + " failed: " + recovered.error().to_string();
    return false;
  }
  const std::map<std::string, std::string>& documents = recovered.value().documents;
  std::set<std::string> expected;
  for (const auto& [name, doc] : inputs.preload) expected.insert(name);
  for (const ClientLog& log : logs) {
    for (const auto& [name, hash] : log.acked) {
      expected.insert(name);
      const auto it = documents.find(name);
      if (it == documents.end() || hash_bytes(it->second) != hash) {
        error = "acknowledged document " + name + " not recovered exactly";
        return false;
      }
    }
  }
  std::set<std::string> names;
  for (const auto& [name, body] : documents) names.insert(name);
  if (names != expected) {
    error = "recovered " + std::to_string(names.size()) + " documents, acknowledged " +
            std::to_string(expected.size());
    return false;
  }
  return true;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out << std::setprecision(15) << v;
  return out.str();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name
              << (std::isfinite(m.value) ? number(m.value) : std::string("n/a")) << " " << m.unit
              << "\n";
  }
}

void print_result(bool correct, const OpCount& count, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << count.attempted << ", \"failed\": " << count.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "# id parent name start_ns end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ' ' << s.parent << ' ' << s.name << ' ' << s.start_ns << ' ' << s.end_ns
        << '\n';
  }
}

int fail(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  print_result(false, OpCount{1, 1}, {});
  return 1;
}

int run(const Args& args) {
  fs::create_directories(args.scratch);
  const ScratchDir scratch{args.scratch};
  const Workload workload = args.workload;
  const bool reads = workload != Workload::kSweepIngest;
  const bool live = workload == Workload::kLiveMixed;

  // --- inputs (seeded), template store, repeated timed set-up ---------------
  const auto t_start = std::chrono::steady_clock::now();
  const auto since_start = [&t_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start).count();
  };
  Inputs inputs;
  std::string error;
  const auto writer_count = static_cast<std::size_t>(
      live ? std::ceil(kWriterRate * (kWarmupSeconds + args.seconds)) + 20.0 : 0.0);
  if (!generate_inputs(args.seed, args.scratch, writer_count, kClients, inputs, error)) {
    return fail("input generation: " + error);
  }
  const std::string template_dir = (fs::path(args.scratch) / "template").string();
  if (Status saved = write_template_store(inputs, template_dir); !saved.ok()) {
    return fail("template store: " + saved.error().to_string());
  }

  std::vector<double> setup_times;
  std::unique_ptr<BenchServer> server;
  std::string data_dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string dir = (fs::path(args.scratch) / ("data_" + std::to_string(rep))).string();
    fs::copy(template_dir, dir, fs::copy_options::recursive);
    settle_disk(args.scratch);
    const auto t0 = std::chrono::steady_clock::now();
    provml::Expected<std::unique_ptr<BenchServer>> started = BenchServer::start(dir);
    const auto t1 = std::chrono::steady_clock::now();
    if (!started.ok()) return fail("server start: " + started.error().to_string());
    setup_times.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (rep + 1 < kSetupRepeats) {
      started.value()->stop();
      fs::remove_all(dir);
    } else {
      server = started.take();
      data_dir = dir;
    }
  }
  const double setup_s = median(setup_times);
  std::cout << "set-up done after " << number(since_start()) << " s (inputs, template store, "
            << kSetupRepeats << " timed server starts:";
  for (const double t : setup_times) std::cout << " " << number(t);
  std::cout << " s)\n";

  Context ctx;
  ctx.workload = workload;
  ctx.seed = args.seed;
  ctx.port = server->http().port();
  ctx.scratch = args.scratch;
  if (reads) {
    for (const auto& [name, doc] : inputs.preload) ctx.preload_names.push_back(name);
    ctx.expected = std::move(inputs.oracles);
    ctx.zipf = std::make_unique<ZipfSampler>(kPreloadRuns, kZipfExponent, args.seed ^ 0x21BFULL);
    if (!fetch_drain_oracles(ctx, inputs, error)) return fail(error);
  }
  if (live) ctx.writer_docs = std::move(inputs.writer_docs);

  // --- measurement ----------------------------------------------------------
  settle_disk(args.scratch);
  if (!reset_peak_rss()) return fail("cannot reset VmHWM through /proc/self/clear_refs");
  std::vector<ClientLog> logs(kClients);
  const CounterSnapshot s0 = snapshot(*server);
  ctx.writer_origin_ns = s0.at_ns;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&ctx, &logs, t, workload, live] {
      if (workload == Workload::kSweepIngest) {
        sweep_producer(ctx, t, logs[t]);
      } else if (live && t + 1 == kClients) {
        live_writer(ctx, logs[t]);
      } else {
        explorer_reader(ctx, t, logs[t]);
      }
    });
  }
  Tracer& tracer = Tracer::global();
  // The measured window: slice_count untraced slices, or with --trace 1
  // alternating untraced and traced slices of about a second, so both see
  // the same store sizes and trace.overhead compares like with like.
  const int slices = args.trace ? 2 * std::max(1, static_cast<int>(std::lround(args.seconds / 2)))
                                : slice_count(workload, args.seconds);
  const auto slice_ns = static_cast<std::int64_t>(args.seconds * 1e9 / slices);
  sleep_until_ns(s0.at_ns + static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  std::vector<CounterSnapshot> marks{snapshot(*server)};
  for (int i = 1; i <= slices; ++i) {
    tracer.set_enabled(args.trace && i % 2 == 0);
    ctx.phase = i;
    sleep_until_ns(marks.front().at_ns + i * slice_ns);
    marks.push_back(snapshot(*server));
  }
  tracer.set_enabled(false);
  ctx.phase = slices + 1;
  ctx.stop = true;
  for (std::thread& client : clients) client.join();
  const CounterSnapshot s_end = snapshot(*server);
  const double peak_rss = peak_rss_mb();
  const std::vector<Span> spans = tracer.collect();

  // --- checks ---------------------------------------------------------------
  std::vector<std::string> problems;
  const StoreFailures stores = check_run_stores(logs, kClients);
  for (const std::string& e : stores.errors) problems.push_back("run store " + e);
  std::uint64_t failed_anywhere = 0;
  std::uint64_t acked = 0;
  bool any_run = false;
  for (const ClientLog& log : logs) {
    for (const OpRecord& op : log.ops) failed_anywhere += op.ok ? 0 : 1;
    for (const std::string& e : log.errors) problems.push_back(e);
    acked += log.acked.size();
    any_run = any_run || !log.runs.empty();
  }
  if (failed_anywhere > 0) {
    problems.push_back(std::to_string(failed_anywhere) + " operation(s) failed");
  }
  const std::uint64_t appends = s_end.wal.appends - s0.wal.appends;
  if (appends != acked) {
    problems.push_back("WAL appends " + std::to_string(appends) + " != acknowledged PUTs " +
                       std::to_string(acked));
  }
  if (workload == Workload::kSweepIngest && s_end.app.reads != s0.app.reads) {
    problems.push_back("sweep_ingest issued reads");
  }
  if (workload == Workload::kExploreRead && (appends != 0 || any_run)) {
    problems.push_back("explore_read wrote or ran the trainer");
  }
  server->stop();
  if (workload != Workload::kExploreRead && !check_recovery(data_dir, inputs, logs, error)) {
    problems.push_back(error);
  }

  // --- report ---------------------------------------------------------------
  std::vector<Window> untraced_windows;
  std::vector<Window> traced_windows;
  CounterSnapshot traced_counters;  // summed deltas over the traced slices
  for (int i = 1; i <= slices; ++i) {
    const Window window{i, marks[i - 1].at_ns, marks[i].at_ns};
    if (args.trace && i % 2 == 0) {
      traced_windows.push_back(window);
      add_delta(traced_counters, marks[i - 1], marks[i]);
    } else {
      untraced_windows.push_back(window);
    }
  }
  Aggregate untraced = aggregate(logs, workload, untraced_windows);
  Aggregate traced = aggregate(logs, workload, traced_windows);
  OpCount count = untraced.count;
  count.merge(traced.count);
  count.failed = std::min(count.attempted, count.failed + stores.count);

  std::cout << "perfbench workload=" << args.workload_name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::vector<Aggregate> untraced_slices;
  for (const Window& window : untraced_windows) {
    untraced_slices.push_back(aggregate(logs, workload, {window}));
  }
  std::cout << "untraced slices (throughput_per_s / op_p50_ms):";
  for (Aggregate& slice : untraced_slices) {
    std::cout << " " << number(slice.throughput()) << "/"
              << number(slice.op_ms.percentile(50).value_or(0.0));
  }
  std::cout << "\nend-to-end (untraced, " << untraced_windows.size()
            << " slices, median over slices):\n";
  std::vector<Metric> e2e = end_to_end_metrics(untraced_slices, setup_s, peak_rss);
  print_metrics(e2e);
  std::cout << "named figures (untraced, all slices together):\n";
  print_metrics(named_metrics(untraced, workload));
  std::vector<Metric> result = e2e;
  if (args.trace) {
    std::cout << "per-layer (traced, " << traced_windows.size() << " slices, " << spans.size()
              << " spans):\n";
    std::vector<Window> measured_windows = untraced_windows;
    measured_windows.insert(measured_windows.end(), traced_windows.begin(), traced_windows.end());
    Aggregate measured = aggregate(logs, workload, measured_windows);
    result = per_layer_metrics(traced, untraced, measured, spans, traced_counters, [&] {
      LogTiming total;
      for (const ClientLog& log : logs) {
        total.calls += log.log_timing.calls;
        total.ns += log.log_timing.ns;
      }
      return total;
    }(), workload);
    print_metrics(result);
    std::cout << "median self time per span (span minus its child spans):\n";
    print_metrics(self_times(spans));
    if (!args.trace_out.empty()) write_spans(args.trace_out, spans);
  } else {
    for (const Metric& m : e2e) {
      if (!std::isfinite(m.value)) {
        problems.push_back("too few samples to publish " + m.name);
      }
    }
  }
  std::cout << "finished after " << number(since_start()) << " s\n";
  for (const std::string& p : problems) std::cerr << "perfbench: check failed: " << p << "\n";
  print_result(problems.empty(), count, result);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) {
    std::cerr << "perfbench_e2e: " << error << "\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    return perfbench::fail(std::string("exception: ") + e.what());
  }
}
