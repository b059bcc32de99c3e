#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kHost = "127.0.0.1";

// Read mix: shares of the readers' operations. These are assumptions, not
// measured Explorer traffic: no source gives the real mix. A drain is one
// operation made of 20 page requests, so it is drawn rarely.
constexpr double kDrainShare = 0.02;
constexpr double kLineageShare = 0.30;
constexpr double kMatchShare = 0.30;
constexpr double kGetShare = 0.19;  // the remaining 0.19 revalidate

/// One exchange as the client saw it.
struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
  std::string etag;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string error;
};

/// Sends one request carrying an X-Request-Id and, on traced runs,
/// records the client span under that id so the handler span links to it.
Reply send(net::HttpClient& client, const std::string& method, const std::string& target,
           const std::string& body, std::vector<net::Header> headers, const char* span_name,
           SpanId parent) {
  Tracer& tracer = Tracer::global();
  const SpanId request_id = tracer.next_id();
  headers.push_back({"X-Request-Id", std::to_string(request_id)});
  const bool traced = tracer.enabled();
  Reply reply;
  reply.start_ns = now_ns();
  provml::Expected<net::HttpResponse> response =
      client.request(method, target, body, std::move(headers));
  reply.end_ns = now_ns();
  if (traced) tracer.record(Span{request_id, parent, span_name, reply.start_ns, reply.end_ns});
  if (!response.ok()) {
    reply.error = response.error().to_string();
    return reply;
  }
  reply.transport_ok = true;
  reply.status = response.value().status;
  if (const std::string* etag = response.value().header("ETag")) reply.etag = *etag;
  reply.body = std::move(response.value().body);
  return reply;
}

std::string describe(const Reply& reply) {
  if (!reply.transport_ok) return reply.error;
  return "HTTP " + std::to_string(reply.status) + " " + reply.body.substr(0, 200);
}

void sleep_until_ns(std::int64_t deadline_ns, const std::atomic<bool>& stop) {
  for (;;) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0 || stop.load()) return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<std::int64_t>(left, 50'000'000)));
  }
}

/// The rows of a query response ({"rows": [...]}) or of a cursor page.
const json::Array* rows_of(const json::Value& body) {
  const json::Value* rows = body.find("rows");
  return rows != nullptr ? rows->get_array() : nullptr;
}

/// Checks a lineage / MATCH response against the oracle.
bool verify_table(Cls cls, int match_kind, const RunOracle& oracle, const std::string& body,
                  std::string& why) {
  provml::Expected<json::Value> parsed = json::parse(body);
  const json::Array* rows = parsed.ok() ? rows_of(parsed.value()) : nullptr;
  if (rows == nullptr) {
    why = "unparseable table";
    return false;
  }
  if (cls == kMatch) {
    if (*rows == oracle.match_rows[static_cast<std::size_t>(match_kind)]) return true;
    why = "MATCH table differs from the brute-force oracle";
    return false;
  }
  std::vector<std::string> ids;
  ids.reserve(rows->size());
  for (const json::Value& row : *rows) {
    const json::Value* x = row.find("x");
    if (x == nullptr || !x->is_string()) {
      why = "lineage row without a prov id";
      return false;
    }
    ids.push_back(x->as_string());
  }
  std::sort(ids.begin(), ids.end());
  if (ids == oracle.lineage) return true;
  why = "lineage set differs from explorer::upstream";
  return false;
}

/// A full cursor drain of one cohort query, restarting on 410.
void drain(Context& ctx, net::HttpClient& client, std::size_t cohort, int phase,
           ClientLog& log) {
  const DrainOracle& oracle = ctx.drains[cohort];
  const ScopedSpan span("drain", 0);
  OpRecord op;
  op.cls = kDrain;
  op.phase = phase;
  op.start_ns = now_ns();
  std::vector<std::string> rows;
  std::string failure;
  for (;;) {
    rows.clear();
    json::Object envelope;
    envelope.set("query", oracle.query);
    envelope.set("page_size", static_cast<std::int64_t>(kPageSize));
    std::string body = json::write(json::Value(std::move(envelope)));
    std::string target = "/api/v0/query";
    bool gone = false;
    bool done = false;
    while (!done && failure.empty()) {
      Reply reply = send(client, "POST", target, body, {}, "req.page", span.id());
      OpRecord page{kPage, false, phase, reply.start_ns, reply.end_ns};
      page.bytes = reply.body.size();
      page.ok = reply.transport_ok && (reply.status == 200 || reply.status == 410);
      log.ops.push_back(page);
      if (reply.transport_ok && reply.status == 410) {
        gone = true;
        break;
      }
      if (!page.ok) {
        failure = "drain page: " + describe(reply);
        break;
      }
      provml::Expected<json::Value> parsed = json::parse(reply.body);
      const json::Array* page_rows = parsed.ok() ? rows_of(parsed.value()) : nullptr;
      if (page_rows == nullptr) {
        failure = "drain page unparseable";
        break;
      }
      for (const json::Value& row : *page_rows) rows.push_back(json::write(row));
      const json::Value* page_done = parsed.value().find("done");
      const json::Value* token = parsed.value().find("cursor");
      done = page_done == nullptr || !page_done->is_bool() || page_done->as_bool();
      if (!done) {
        if (token == nullptr || !token->is_string()) {
          failure = "drain page without a cursor";
          break;
        }
        json::Object next;
        next.set("cursor", token->as_string());
        body = json::write(json::Value(std::move(next)));
        target = "/api/v0/query/next";
      }
    }
    if (!failure.empty()) break;
    if (gone) {
      ++op.restarts;
      // Only a concurrent write can invalidate a cursor, and explore_read
      // has none: a 410 there is a defect, not a restart.
      if (ctx.workload == Workload::kExploreRead) {
        failure = "cursor 410 without concurrent writes";
        break;
      }
      if (op.restarts > kMaxDrainRestarts) {
        failure = "drain still 410 after " + std::to_string(kMaxDrainRestarts) + " restarts";
        break;
      }
      continue;
    }
    if (rows.size() != oracle.rows) {
      failure = "drain returned " + std::to_string(rows.size()) + " rows, expected " +
                std::to_string(oracle.rows);
    } else if (ctx.workload == Workload::kExploreRead
                   ? ordered_rows_hash(rows) != oracle.ordered_hash
                   : sorted_rows_hash(rows) != oracle.sorted_hash) {
      failure = "drained pages differ from the one-shot /api/v0/query table";
    }
    break;
  }
  op.end_ns = now_ns();
  op.rows = static_cast<std::uint32_t>(rows.size());
  op.ok = failure.empty();
  if (!op.ok) log.error(failure);
  log.ops.push_back(op);
}

}  // namespace

std::uint64_t hash_bytes(const std::string& bytes) {
  return std::hash<std::string_view>{}(bytes);
}

std::uint64_t ordered_rows_hash(const std::vector<std::string>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& row : rows) h = (h ^ hash_bytes(row)) * 0x100000001b3ULL;
  return h;
}

std::uint64_t sorted_rows_hash(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return ordered_rows_hash(rows);
}

void sweep_producer(Context& ctx, std::size_t thread, ClientLog& log) {
  net::HttpClient client(kHost, ctx.port);
  const fs::path dir = fs::path(ctx.scratch) / ("runs_t" + std::to_string(thread));
  while (!ctx.stop.load()) {
    const std::uint64_t k = ctx.next_run.fetch_add(1);
    const RunSpec spec =
        make_run_spec(ctx.seed, k, "s" + std::to_string(k), "sweep", Volume::kSweep);
    const fs::path run_dir = dir / spec.name;
    OpRecord run_op;
    run_op.cls = kRun;
    run_op.phase = ctx.phase.load();
    const bool traced = Tracer::global().enabled();
    LogTiming timing;
    RunOutput out;
    Reply put;
    run_op.start_ns = now_ns();
    {
      const ScopedSpan span("run", 0);
      out = execute_run(spec, run_dir.string(), span.id(), traced ? &timing : nullptr);
      if (out.status.ok()) {
        put = send(client, "PUT", "/api/v0/documents/" + spec.name, out.body, {}, "req.put",
                   span.id());
      }
    }
    run_op.end_ns = now_ns();

    bool ok = out.status.ok();
    if (!ok) log.error("run " + spec.name + ": " + out.status.error().to_string());
    if (ok) {
      OpRecord put_op{kPut, put.transport_ok && put.status == 201, run_op.phase, put.start_ns,
                      put.end_ns};
      put_op.bytes = out.body.size();
      log.ops.push_back(put_op);
      if (put_op.ok) {
        log.acked.emplace_back(spec.name, hash_bytes(out.body));
      } else {
        ok = false;
        log.error("PUT " + spec.name + ": " + describe(put));
      }
    }
    run_op.ok = ok;
    log.ops.push_back(run_op);
    // The store is read back and removed after the window (check_run_stores).
    RunRecord record;
    record.phase = run_op.phase;
    record.end_ns = run_op.end_ns;
    record.samples = out.samples;
    record.elements = out.document.elements().size();
    record.run_dir = run_dir.string();
    if (out.status.ok()) {
      record.store_path = out.store_path;
      record.prov_path = out.prov_path;
    }
    log.runs.push_back(std::move(record));
    log.log_timing.calls += timing.calls;
    log.log_timing.ns += timing.ns;
  }
}

StoreFailures check_run_stores(std::vector<ClientLog>& logs, std::size_t threads) {
  std::vector<RunRecord*> records;
  for (ClientLog& log : logs) {
    for (RunRecord& record : log.runs) records.push_back(&record);
  }
  std::vector<StoreFailures> failures(threads);
  std::atomic<std::size_t> next{0};
  parallel(threads, [&](std::size_t t) {
    for (std::size_t i = next.fetch_add(1); i < records.size(); i = next.fetch_add(1)) {
      RunRecord& record = *records[i];
      if (!record.store_path.empty()) {
        const StoreCheck store = check_store(record.store_path, record.prov_path, record.samples);
        record.store_bytes = store.store_bytes;
        record.prov_bytes = store.prov_bytes;
        record.store_files = store.store_files;
        if (!store.ok) {
          ++failures[t].count;
          if (failures[t].errors.size() < 8) {
            failures[t].errors.push_back(record.store_path + ": " + store.error);
          }
        }
      }
      std::error_code ec;
      fs::remove_all(record.run_dir, ec);
    }
  });
  StoreFailures all;
  for (StoreFailures& f : failures) {
    all.count += f.count;
    all.errors.insert(all.errors.end(), f.errors.begin(), f.errors.end());
  }
  return all;
}

void explorer_reader(Context& ctx, std::size_t thread, ClientLog& log) {
  net::HttpClient client(kHost, ctx.port);
  testkit::Rng rng(testkit::Rng::mix(ctx.seed ^ 0x5EADE5ULL, thread));
  std::string etag = "\"0\"";
  // Bodies already checked against the oracle, by (run, query slot): a
  // repeat of a verified body needs only a hash compare.
  std::unordered_map<std::uint64_t, std::uint64_t> verified;
  while (!ctx.stop.load()) {
    const int phase = ctx.phase.load();
    double u = rng.unit();
    if (u < kDrainShare) {
      drain(ctx, client, static_cast<std::size_t>(rng.below(kCohorts)), phase, log);
      continue;
    }
    u -= kDrainShare;
    const bool query = u < kLineageShare + kMatchShare;
    std::size_t rank = ctx.zipf->sample_rank(rng);
    // Document GETs are always cacheable, so they stay on the hot set.
    while (!query && rank >= kHotRuns) rank = ctx.zipf->sample_rank(rng);
    const bool hot = rank < kHotRuns;
    const std::size_t run = ctx.zipf->key(rank);
    const std::string& name = ctx.preload_names[run];
    const RunOracle& oracle = ctx.expected[run];
    Cls cls = kRevalidate;
    int match_kind = 0;
    std::uint64_t slot = 0;
    Reply reply;
    if (query) {
      std::string text;
      if (u < kLineageShare) {
        cls = kLineage;
        text = lineage_query(name);
      } else {
        cls = kMatch;
        match_kind = static_cast<int>(rng.below(kMatchKinds));
        slot = 1 + static_cast<std::uint64_t>(match_kind);
        text = match_query(match_kind, name);
      }
      if (!hot) {
        // One page holds the whole (small) result, so no cursor stays open.
        json::Object envelope;
        envelope.set("query", std::move(text));
        envelope.set("page_size", static_cast<std::int64_t>(1000));
        text = json::write(json::Value(std::move(envelope)));
        slot += 8;
      }
      const char* span_name = cls == kLineage ? (hot ? "req.lineage" : "req.lineage.paged")
                                              : (hot ? "req.match" : "req.match.paged");
      reply = send(client, "POST", "/api/v0/query", text, {}, span_name, 0);
    } else if (u < kLineageShare + kMatchShare + kGetShare) {
      cls = kGet;
      slot = 4;
      reply = send(client, "GET", "/api/v0/documents/" + name, "", {}, "req.get", 0);
    } else {
      slot = 4;
      reply = send(client, "GET", "/api/v0/documents/" + name, "", {{"If-None-Match", etag}},
                   "req.revalidate", 0);
    }
    OpRecord op{cls, false, phase, reply.start_ns, reply.end_ns};
    op.bytes = reply.body.size();
    std::string why;
    if (!reply.transport_ok) {
      why = reply.error;
    } else if (cls == kRevalidate && reply.status == 304) {
      op.ok = true;
    } else if (reply.status != 200) {
      why = describe(reply);
    } else {
      const std::uint64_t h = hash_bytes(reply.body);
      const std::uint64_t key = static_cast<std::uint64_t>(run) * 16 + slot;
      const auto it = verified.find(key);
      if (it != verified.end() && it->second == h) {
        op.ok = true;
      } else if (slot == 4) {
        op.ok = h == oracle.get_hash;
        if (!op.ok) why = "GET body differs from the stored document";
      } else {
        op.ok = verify_table(cls, match_kind, oracle, reply.body, why);
      }
      if (op.ok) verified[key] = h;
    }
    if (!reply.etag.empty()) etag = reply.etag;
    if (!op.ok) log.error(name + ": " + why);
    log.ops.push_back(op);
  }
}

void live_writer(Context& ctx, ClientLog& log) {
  net::HttpClient client(kHost, ctx.port);
  const double interval_ns = 1e9 / kWriterRate;
  for (std::size_t k = 0; k < ctx.writer_docs.size(); ++k) {
    const std::int64_t due =
        ctx.writer_origin_ns + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
    sleep_until_ns(due, ctx.stop);
    if (ctx.stop.load()) return;
    const auto& [name, body] = ctx.writer_docs[k];
    const int phase = ctx.phase.load();
    const Reply reply = send(client, "PUT", "/api/v0/documents/" + name, body, {}, "req.put", 0);
    // Timed from the scheduled send, so a stalled writer shows as latency.
    OpRecord op{kPut, reply.transport_ok && reply.status == 201, phase, due, reply.end_ns};
    op.late_ns = reply.start_ns - due;
    op.bytes = body.size();
    if (op.ok) {
      log.acked.emplace_back(name, hash_bytes(body));
    } else {
      log.error("PUT " + name + ": " + describe(reply));
    }
    log.ops.push_back(op);
  }
  log.error("live writer ran out of pre-generated documents");
}

}  // namespace perfbench
