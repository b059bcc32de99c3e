#include "setup.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "provml/explorer/lineage.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/wal/wal.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace explorer = provml::explorer;
namespace fs = std::filesystem;
namespace graphstore = provml::graphstore;
namespace wal = provml::wal;

// Independent generator streams per input family.
constexpr std::uint64_t kPreloadStream = 0x9E10ADULL;
constexpr std::uint64_t kWriterStream = 0x771E5ULL;

/// "p17"-style document names. Built by append: GCC 12 at -O3 warns
/// (-Wrestrict, a false positive) on `"p" + std::to_string(i)`.
std::string indexed_name(const char* prefix, std::size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

/// A result table rendered the way the service renders query rows:
/// node columns as the bound node's prov_id, aggregates as values.
json::Array render_rows(const graphstore::PropertyGraph& graph,
                        const graphstore::ResultSet& table) {
  json::Array rows;
  for (const std::vector<json::Value>& row : table.rows) {
    json::Object object;
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (!table.columns[c].is_node) {
        object.set(table.columns[c].name, row[c]);
        continue;
      }
      const graphstore::Node* node = graph.node(static_cast<graphstore::NodeId>(row[c].as_int()));
      const json::Value* id = node != nullptr ? node->properties.find("prov_id") : nullptr;
      object.set(table.columns[c].name, id != nullptr ? *id : json::Value(nullptr));
    }
    rows.push_back(json::Value(std::move(object)));
  }
  return rows;
}

/// The oracle answers for one preloaded document, or an error message.
std::string build_oracle(const std::string& name, const prov::Document& doc,
                         const std::string& body, RunOracle& oracle) {
  // The service stores what it parses from the PUT body; the oracle works
  // on the same round-tripped document so node order matches.
  provml::Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return "generated body does not parse: " + parsed.error().to_string();
  provml::Expected<prov::Document> served = prov::from_prov_json(parsed.value());
  if (!served.ok()) return "generated body is not PROV-JSON: " + served.error().to_string();
  const std::string served_body = prov::to_prov_json_string(served.value(), false);
  if (served_body != body) return "PROV-JSON round trip of " + name + " is not stable";
  oracle.get_hash = hash_bytes(served_body);

  for (const explorer::LineageHop& hop : explorer::upstream(doc, checkpoint_id(name))) {
    oracle.lineage.push_back(hop.id);
  }
  std::sort(oracle.lineage.begin(), oracle.lineage.end());
  if (oracle.lineage.empty()) return "checkpoint of " + name + " has no lineage";

  graphstore::PropertyGraph graph;
  provml::Expected<graphstore::IngestStats> ingested =
      graphstore::ingest_document(graph, served.value(), name);
  if (!ingested.ok()) return "oracle ingest failed: " + ingested.error().to_string();
  for (int kind = 0; kind < kMatchKinds; ++kind) {
    provml::Expected<graphstore::Query> query = graphstore::parse_query(match_query(kind, name));
    if (!query.ok()) return "MATCH template does not parse: " + query.error().to_string();
    provml::Expected<graphstore::ResultSet> table =
        graphstore::execute_query_brute_force(graph, query.value());
    if (!table.ok()) return "brute-force MATCH failed: " + table.error().to_string();
    if (table.value().rows.empty()) return "MATCH template " + std::to_string(kind) + " is empty";
    oracle.match_rows[static_cast<std::size_t>(kind)] = render_rows(graph, table.value());
  }
  return "";
}

}  // namespace

std::string cohort_name(std::size_t cohort) { return "cohort_" + std::to_string(cohort); }

bool generate_inputs(std::uint64_t seed, const std::string& scratch, std::size_t writer_count,
                     std::size_t threads, Inputs& inputs, std::string& error) {
  const std::size_t total = kPreloadRuns + writer_count;
  std::vector<RunOutput> outputs(total);
  std::vector<std::string> errors(total);
  std::atomic<std::size_t> next{0};
  parallel(threads, [&](std::size_t t) {
    const fs::path dir = fs::path(scratch) / ("gen_t" + std::to_string(t));
    for (std::size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      const RunSpec spec =
          i < kPreloadRuns
              ? make_run_spec(seed ^ kPreloadStream, i, indexed_name("p", i),
                              cohort_name(i % kCohorts), Volume::kDocumentOnly)
              : make_run_spec(seed ^ kWriterStream, i - kPreloadRuns,
                              indexed_name("w", i - kPreloadRuns), "live",
                              Volume::kDocumentOnly);
      const fs::path run_dir = dir / spec.name;
      outputs[i] = execute_run(spec, run_dir.string(), 0, nullptr);
      if (!outputs[i].status.ok()) errors[i] = outputs[i].status.error().to_string();
      std::error_code ec;
      fs::remove_all(run_dir, ec);
    }
  });

  inputs.oracles.assign(kPreloadRuns, RunOracle{});
  next = 0;
  parallel(threads, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1); i < kPreloadRuns; i = next.fetch_add(1)) {
      if (!errors[i].empty()) continue;
      errors[i] = build_oracle(indexed_name("p", i), outputs[i].document, outputs[i].body,
                               inputs.oracles[i]);
    }
  });
  for (const std::string& e : errors) {
    if (!e.empty()) {
      error = e;
      return false;
    }
  }

  for (std::size_t i = 0; i < kPreloadRuns; ++i) {
    const std::string run_id = indexed_name("ex:p", i);
    for (const prov::Relation& r : outputs[i].document.relations()) {
      if (r.kind == prov::RelationKind::kUsed && r.subject == run_id) {
        ++inputs.cohort_rows[i % kCohorts];
      }
    }
    inputs.preload.emplace_back(indexed_name("p", i), std::move(outputs[i].document));
  }
  for (std::size_t j = 0; j < writer_count; ++j) {
    inputs.writer_docs.emplace_back(indexed_name("w", j),
                                    std::move(outputs[kPreloadRuns + j].body));
  }
  return true;
}

Status write_template_store(const Inputs& inputs, const std::string& dir) {
  graphstore::YProvService service;
  provml::Expected<graphstore::IngestStats> stats = service.put_documents(inputs.preload);
  if (!stats.ok()) return stats.error();
  return service.save(dir);
}

provml::Expected<std::unique_ptr<BenchServer>> BenchServer::start(const std::string& data_dir) {
  std::unique_ptr<BenchServer> server(new BenchServer());
  net::YProvHttpApp::Options options;
  options.cache_capacity = 256;
  options.compress_min_bytes = 1024;
  server->app_ = std::make_unique<net::YProvHttpApp>(graphstore::YProvService(1), options);
  wal::Options wal_options;
  wal_options.fsync_policy = wal::FsyncPolicy::kEveryWrite;
  Status attached = server->app_->service().attach_wal(data_dir, wal_options);
  if (!attached.ok()) return attached.error();

  net::YProvHttpApp* app = server->app_.get();
  net::ServerConfig config;
  config.threads = 4;
  server->http_ = std::make_unique<net::HttpServer>(
      config, [app](const net::HttpRequest& request) {
        Tracer& tracer = Tracer::global();
        if (!tracer.enabled()) return app->handle(request);
        Span span;
        span.id = tracer.next_id();
        span.name = "handler";
        if (const std::string* id = request.header("X-Request-Id")) {
          span.parent = std::strtoull(id->c_str(), nullptr, 10);
        }
        span.start_ns = now_ns();
        net::HttpResponse response = app->handle(request);
        span.end_ns = now_ns();
        tracer.record(span);
        return response;
      });
  AccessLog* access_log = &server->access_log_;
  server->http_->set_access_logger([access_log](const std::string& line) {
    const std::lock_guard<std::mutex> lock(access_log->mutex);
    ++access_log->lines;
    access_log->bytes += line.size();
  });
  net::HttpServer* http = server->http_.get();
  app->set_server_stats_provider([http] { return http->stats(); });
  Status started = http->start();
  if (!started.ok()) return started.error();
  return server;
}

void BenchServer::stop() {
  if (http_) http_->stop();
  http_.reset();
  app_.reset();
}

BenchServer::~BenchServer() { stop(); }

}  // namespace perfbench
