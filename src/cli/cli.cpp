#include "provml/cli/cli.hpp"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "provml/common/file_io.hpp"
#include "provml/common/strings.hpp"
#include "provml/compress/container.hpp"
#include "provml/analysis/forecast.hpp"
#include "provml/analysis/scaling_fit.hpp"
#include "provml/explorer/diff.hpp"
#include "provml/explorer/lineage.hpp"
#include "provml/explorer/stats.hpp"
#include "provml/explorer/subgraph.hpp"
#include "provml/explorer/timeline.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/net/client.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/constraints.hpp"
#include "provml/prov/dot.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/prov/prov_n.hpp"
#include "provml/prov/prov_xml.hpp"
#include "provml/prov/turtle.hpp"
#include "provml/rocrate/crate.hpp"
#include "provml/wal/wal.hpp"

namespace provml::cli {
namespace {

/// Splits args into positionals and --key value options. `--explain` is
/// the one bare flag: it takes no value, so it never eats the positional
/// that follows it.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

ParsedArgs parse_args(const std::vector<std::string>& args, std::size_t start) {
  ParsedArgs parsed;
  for (std::size_t i = start; i < args.size(); ++i) {
    if (args[i].size() > 2 && args[i].substr(0, 2) == "--") {
      const std::string key = args[i].substr(2);
      if (key != "explain" && i + 1 < args.size()) {
        parsed.options[key] = args[++i];
      } else {
        parsed.options[key] = "";
      }
    } else {
      parsed.positional.push_back(args[i]);
    }
  }
  return parsed;
}

int fail(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\n";
  return 1;
}

/// The --options each command's usage() line lists. Commands read only
/// the keys they know, so without this check a misspelt or removed
/// option would be silently ignored.
const std::map<std::string, std::set<std::string>>& known_options() {
  static const std::map<std::string, std::set<std::string>> options = {
      {"validate", {}},
      {"stats", {"url"}},
      {"convert", {"to", "out"}},
      {"constraints", {}},
      {"timeline", {}},
      {"subgraph", {"hops", "out"}},
      {"diff", {}},
      {"lineage", {"direction", "depth"}},
      {"ingest", {"url"}},
      {"list", {}},
      {"get", {"element"}},
      {"query", {"url", "explain", "page-size"}},
      {"serve",
       {"port", "threads", "data-dir", "cache", "max-connections", "fsync",
        "wal-segment-bytes"}},
      {"fit", {}},
      {"predict", {"k"}},
      {"report", {}},
      {"crate", {"name"}},
      {"pack", {"codec"}},
      {"unpack", {}},
  };
  return options;
}

int cmd_validate(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "validate takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  const std::vector<std::string> problems = doc.value().validate();
  if (problems.empty()) {
    out << "valid: " << args.positional[0] << "\n";
    return 0;
  }
  for (const std::string& p : problems) out << "problem: " << p << "\n";
  return 2;
}

int cmd_stats(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "stats takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  out << explorer::to_string(explorer::document_stats(doc.value()));
  return 0;
}

int cmd_convert(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "convert takes one file");
  const auto to = args.options.find("to");
  if (to == args.options.end()) return fail(err, "convert requires --to provn|dot");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  std::string rendered;
  if (to->second == "provn") {
    rendered = prov::to_prov_n(doc.value());
  } else if (to->second == "dot") {
    rendered = prov::to_dot(doc.value());
  } else if (to->second == "ttl" || to->second == "turtle") {
    rendered = prov::to_turtle(doc.value());
  } else if (to->second == "xml") {
    rendered = prov::to_prov_xml(doc.value());
  } else {
    return fail(err, "unknown target format: " + to->second);
  }
  const auto out_path = args.options.find("out");
  if (out_path != args.options.end()) {
    Status s = io::write_text_atomic(out_path->second, rendered);
    if (!s.ok()) return fail(err, s.error().to_string());
    out << "wrote " << out_path->second << "\n";
  } else {
    out << rendered;
  }
  return 0;
}

int cmd_diff(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "diff takes two files");
  auto left = prov::read_prov_json_file(args.positional[0]);
  if (!left.ok()) return fail(err, left.error().to_string());
  auto right = prov::read_prov_json_file(args.positional[1]);
  if (!right.ok()) return fail(err, right.error().to_string());
  const explorer::RunDiff diff = explorer::diff_runs(left.value(), right.value());
  out << explorer::to_string(diff);
  return diff.identical() ? 0 : 3;
}

int cmd_lineage(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "lineage takes a file and an element id");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  if (doc.value().find_element(args.positional[1]) == nullptr) {
    return fail(err, "element not found: " + args.positional[1]);
  }
  auto direction = explorer::LineageDirection::kUpstream;
  const auto dir = args.options.find("direction");
  if (dir != args.options.end()) {
    if (dir->second == "down") direction = explorer::LineageDirection::kDownstream;
    else if (dir->second != "up") return fail(err, "direction must be up or down");
  }
  std::size_t depth = 0;
  const auto depth_opt = args.options.find("depth");
  if (depth_opt != args.options.end()) {
    const auto value = strings::to_int64(depth_opt->second);
    if (!value || *value < 0) return fail(err, "invalid --depth (>= 0, 0 = unbounded)");
    depth = static_cast<std::size_t>(*value);
  }
  for (const explorer::LineageHop& hop :
       explorer::lineage(doc.value(), args.positional[1], direction, depth)) {
    out << std::string(hop.depth * 2, ' ') << hop.id << "  (via " << hop.via << ")\n";
  }
  return 0;
}

int cmd_ingest(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    return fail(err, "ingest takes a store dir and name=file pairs");
  }
  const std::string& store_dir = args.positional[0];
  // Mutations go through the WAL, so every ingested document is durable
  // the moment its line prints — a crash mid-batch keeps the prefix.
  graphstore::YProvService service;
  Status attached = service.attach_wal(store_dir);
  if (!attached.ok()) return fail(err, attached.error().to_string());
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    const std::string& pair = args.positional[i];
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) return fail(err, "expected name=file, got: " + pair);
    auto doc = prov::read_prov_json_file(pair.substr(eq + 1));
    if (!doc.ok()) return fail(err, doc.error().to_string());
    Status s = service.put_document(pair.substr(0, eq), doc.value());
    if (!s.ok()) return fail(err, s.error().to_string());
    out << "ingested " << pair.substr(0, eq) << "\n";
  }
  Status s = service.wal_compact();  // fold the fresh tail into a snapshot
  if (!s.ok()) return fail(err, s.error().to_string());
  return 0;
}

int cmd_list(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "list takes a store dir");
  auto service = graphstore::YProvService::load(args.positional[0]);
  if (!service.ok()) return fail(err, service.error().to_string());
  for (const std::string& name : service.value().list_documents()) {
    out << name << "\n";
  }
  return 0;
}

int cmd_get(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "get takes a store dir and a name");
  auto service = graphstore::YProvService::load(args.positional[0]);
  if (!service.ok()) return fail(err, service.error().to_string());
  const auto element = args.options.find("element");
  graphstore::Request request;
  request.method = "GET";
  request.path = "/api/v0/documents/" + args.positional[1] +
                 (element != args.options.end() ? "/elements/" + element->second : "");
  const graphstore::Response response = service.value().handle(request);
  out << response.body << "\n";
  return response.status == 200 ? 0 : 4;
}

int cmd_pack(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "pack takes input and output paths");
  std::string codec = "lzss";
  const auto codec_opt = args.options.find("codec");
  if (codec_opt != args.options.end()) codec = codec_opt->second;
  Status s = compress::pack_file(args.positional[0], args.positional[1], codec);
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "packed " << args.positional[0] << " -> " << args.positional[1] << " (" << codec
      << ")\n";
  return 0;
}

int cmd_unpack(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "unpack takes input and output paths");
  auto data = compress::unpack_file(args.positional[0]);
  if (!data.ok()) return fail(err, data.error().to_string());
  Status s = io::write_file_atomic(args.positional[1], data.value());
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "unpacked " << args.positional[0] << " -> " << args.positional[1] << "\n";
  return 0;
}



int cmd_timeline(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "timeline takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  auto timeline = explorer::build_timeline(doc.value());
  if (!timeline.ok()) return fail(err, timeline.error().to_string());
  out << explorer::to_string(timeline.value());
  return 0;
}


int cmd_subgraph(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    return fail(err, "subgraph takes a file and an element id");
  }
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  explorer::SubgraphOptions options;
  const auto hops = args.options.find("hops");
  if (hops != args.options.end()) {
    const auto value = strings::to_int64(hops->second);
    if (!value || *value < 0) return fail(err, "invalid --hops (>= 0)");
    options.max_hops = static_cast<std::size_t>(*value);
  }
  auto sub = explorer::extract_subgraph(doc.value(), args.positional[1], options);
  if (!sub.ok()) return fail(err, sub.error().to_string());
  const auto out_path = args.options.find("out");
  if (out_path != args.options.end()) {
    Status s = prov::write_prov_json_file(out_path->second, sub.value());
    if (!s.ok()) return fail(err, s.error().to_string());
    out << "wrote " << out_path->second << "\n";
  } else {
    out << prov::to_prov_json_string(sub.value()) << "\n";
  }
  return 0;
}

int cmd_constraints(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "constraints takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  const auto violations = prov::check_constraints(doc.value());
  if (violations.empty()) {
    out << "no constraint violations: " << args.positional[0] << "\n";
    return 0;
  }
  out << prov::to_string(violations);
  return 2;
}

/// One result cell as text: node columns render as the bound node's
/// prov_id, aggregate/property columns as their JSON value (bare strings
/// unquoted, everything else serialized).
std::string render_cell(const graphstore::PropertyGraph& graph,
                        const graphstore::ResultSet::Column& column,
                        const json::Value& cell) {
  if (column.is_node) {
    const graphstore::Node* n =
        graph.node(static_cast<graphstore::NodeId>(cell.as_int()));
    const json::Value* prov_id =
        n != nullptr ? n->properties.find("prov_id") : nullptr;
    return prov_id != nullptr && prov_id->is_string() ? prov_id->as_string() : "?";
  }
  return cell.is_string() ? cell.as_string() : json::write(cell);
}

void print_plan(const graphstore::QueryPlan& plan, std::ostream& out) {
  out << "anchor=";
  switch (plan.anchor) {
    case graphstore::QueryPlan::Anchor::kScanAll: out << "scan_all"; break;
    case graphstore::QueryPlan::Anchor::kLabel: out << "label:" << plan.label; break;
    case graphstore::QueryPlan::Anchor::kProperty:
      out << "property:" << plan.label << "." << plan.property_key;
      break;
  }
  out << " reversed=" << (plan.reversed ? "true" : "false")
      << " candidates=" << plan.estimated_candidates
      << " est_rows=" << plan.estimated_rows << " est_cost=" << plan.estimated_cost
      << "\n";
}

int cmd_query(const ParsedArgs& args, bool explain, std::size_t page_size,
              std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    return fail(err, "query takes a store dir and a MATCH query");
  }
  auto service = graphstore::YProvService::load(args.positional[0]);
  if (!service.ok()) return fail(err, service.error().to_string());
  if (explain) {
    auto query = graphstore::parse_query(args.positional[1]);
    if (!query.ok()) return fail(err, query.error().to_string());
    print_plan(graphstore::explain_query(service.value().graph(), query.value()), out);
    return 0;
  }
  // With --page-size, rows print as each page is pulled, so the first
  // results appear after O(page) work even on huge matches; without it,
  // one page holds the whole result.
  auto cursor = graphstore::QueryCursor::open(service.value().graph(), args.positional[1]);
  if (!cursor.ok()) return fail(err, cursor.error().to_string());
  const std::vector<graphstore::ResultSet::Column>& columns = cursor.value().columns();
  const std::size_t page = page_size > 0 ? page_size : SIZE_MAX;
  std::size_t total = 0;
  while (!cursor.value().done()) {
    for (const std::vector<json::Value>& row : cursor.value().next(page)) {
      bool first = true;
      for (std::size_t c = 0; c < columns.size(); ++c) {
        if (!first) out << "  ";
        first = false;
        out << columns[c].name << "="
            << render_cell(service.value().graph(), columns[c], row[c]);
      }
      out << "\n";
      ++total;
    }
  }
  out << total << " row(s)\n";
  return 0;
}

/// Shared: harvest every document of a store into a RunDatabase.
Expected<analysis::RunDatabase> load_run_database(const std::string& store_dir) {
  auto service = graphstore::YProvService::load(store_dir);
  if (!service.ok()) return service.error();
  analysis::RunDatabase db;
  for (const std::string& name : service.value().list_documents()) {
    const std::optional<prov::Document> doc = service.value().get_document(name);
    if (!doc.has_value()) continue;
    // Skip documents that are not run documents rather than failing.
    (void)db.add_document(*doc);
  }
  return db;
}

int cmd_fit(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "fit takes a store dir");
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  std::vector<analysis::ScalingPoint> points;
  for (const analysis::RunRecord& record : db.value().records()) {
    const auto n = record.features.find("parameters");
    const auto d = record.features.find("samples_seen");
    const auto loss = record.outputs.find("final_loss");
    if (n == record.features.end() || d == record.features.end() ||
        loss == record.outputs.end()) {
      continue;
    }
    points.push_back({n->second, d->second, loss->second});
  }
  auto law = analysis::fit_scaling_law(points);
  if (!law.ok()) return fail(err, law.error().to_string());
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "L(N, D) = %.4f + %.4g * N^-%.3f + %.4g * D^-%.3f   (rmse %.4g, %zu runs)\n",
                law.value().e, law.value().a, law.value().alpha, law.value().b,
                law.value().beta, law.value().rmse, points.size());
  out << buf;
  return 0;
}

int cmd_predict(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    return fail(err, "predict takes a store dir, an output name, and key=value features");
  }
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  std::map<std::string, double> query;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    const std::size_t eq = args.positional[i].find('=');
    if (eq == std::string::npos) {
      return fail(err, "expected key=value, got: " + args.positional[i]);
    }
    const auto value = strings::to_double(args.positional[i].substr(eq + 1));
    if (!value) return fail(err, "non-numeric feature value in " + args.positional[i]);
    query[args.positional[i].substr(0, eq)] = *value;
  }
  std::size_t k = 3;
  const auto k_opt = args.options.find("k");
  if (k_opt != args.options.end()) {
    const auto value = strings::to_int64(k_opt->second);
    if (!value || *value < 1) return fail(err, "invalid --k (>= 1)");
    k = static_cast<std::size_t>(*value);
  }
  auto prediction = db.value().predict(query, args.positional[1], k);
  if (!prediction.ok()) return fail(err, prediction.error().to_string());
  out << args.positional[1] << " = " << prediction.value().value
      << "  (confidence " << prediction.value().confidence << ", neighbors:";
  for (const std::string& n : prediction.value().neighbors_used) out << " " << n;
  out << ")\n";
  return 0;
}

int cmd_report(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "report takes a store dir");
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  if (db.value().records().empty()) {
    out << "store contains no run documents\n";
    return 0;
  }
  // Column set = union of outputs across runs.
  std::set<std::string> columns;
  for (const analysis::RunRecord& record : db.value().records()) {
    for (const auto& [name, value] : record.outputs) columns.insert(name);
  }
  out << "run";
  for (const std::string& column : columns) out << "\t" << column;
  out << "\n";
  for (const analysis::RunRecord& record : db.value().records()) {
    out << record.run_name;
    for (const std::string& column : columns) {
      const auto it = record.outputs.find(column);
      out << "\t";
      if (it != record.outputs.end()) out << it->second;
      else out << "-";
    }
    out << "\n";
  }
  return 0;
}

int cmd_crate(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "crate takes a directory");
  rocrate::CrateBuilder builder(args.positional[0]);
  const auto name = args.options.find("name");
  if (name != args.options.end()) builder.set_name(name->second);
  Status s = builder.add_all();
  if (!s.ok()) return fail(err, s.error().to_string());
  s = builder.write();
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "crate written: " << args.positional[0] << "/ro-crate-metadata.json ("
      << builder.entries().size() << " entries)\n";
  return 0;
}

// ---------------------------------------------------------------- remote
// `--url http://host:port` switches ingest/query/stats from the local
// store to a running `yprov serve` instance, via the provml_net client.

int cmd_ingest_remote(const std::string& url, const ParsedArgs& args, std::ostream& out,
                      std::ostream& err) {
  if (args.positional.empty()) {
    return fail(err, "ingest --url takes name=file pairs (no store dir)");
  }
  auto parsed = net::parse_url(url);
  if (!parsed.ok()) return fail(err, parsed.error().to_string());
  net::HttpClient client(parsed.value().host, parsed.value().port);
  for (const std::string& pair : args.positional) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) return fail(err, "expected name=file, got: " + pair);
    const std::string name = pair.substr(0, eq);
    auto doc = prov::read_prov_json_file(pair.substr(eq + 1));
    if (!doc.ok()) return fail(err, doc.error().to_string());
    auto response = client.put(parsed.value().base_path + "/api/v0/documents/" + name,
                               prov::to_prov_json_string(doc.value(), /*pretty=*/false));
    if (!response.ok()) return fail(err, response.error().to_string());
    if (response.value().status != 201) {
      return fail(err, "server rejected " + name + ": " + response.value().body);
    }
    out << "ingested " << name << " -> " << url << "\n";
  }
  return 0;
}

/// Prints one wire-format row object (cells keyed by column name) as
/// `name=value` pairs on a line.
void print_remote_row(const json::Value& row, std::ostream& out) {
  if (!row.is_object()) return;
  bool first = true;
  for (const auto& [var, value] : row.as_object()) {
    if (!first) out << "  ";
    first = false;
    out << var << "=" << (value.is_string() ? value.as_string() : json::write(value));
  }
  out << "\n";
}

int cmd_query_remote(const std::string& url, const std::string& query, bool explain,
                     std::size_t page_size, std::ostream& out, std::ostream& err) {
  auto parsed = net::parse_url(url);
  if (!parsed.ok()) return fail(err, parsed.error().to_string());
  net::HttpClient client(parsed.value().host, parsed.value().port);
  if (page_size > 0 && !explain) {
    // Cursor protocol: fetch and print page by page. A 410 here means a
    // write invalidated the cursor mid-iteration; rerun the query.
    net::QueryPager pager(client, parsed.value().base_path, query, page_size);
    std::size_t total = 0;
    while (!pager.done()) {
      auto page = pager.next_page();
      if (!page.ok()) return fail(err, page.error().to_string());
      const json::Value* rows = page.value().find("rows");
      if (rows == nullptr || !rows->is_array()) {
        return fail(err, "malformed query page");
      }
      for (const json::Value& row : rows->as_array()) {
        print_remote_row(row, out);
        ++total;
      }
    }
    out << total << " row(s)\n";
    return 0;
  }
  const char* route = explain ? "/api/v0/explain" : "/api/v0/query";
  auto response = client.post(parsed.value().base_path + route, query);
  if (!response.ok()) return fail(err, response.error().to_string());
  if (response.value().status != 200) {
    return fail(err, "query failed: " + response.value().body);
  }
  auto body = json::parse(response.value().body);
  if (!body.ok()) return fail(err, body.error().to_string());
  if (explain) {
    if (!body.value().is_object()) return fail(err, "malformed explain response");
    bool first = true;
    for (const auto& [key, value] : body.value().as_object()) {
      if (!first) out << " ";
      first = false;
      out << key << "=" << (value.is_string() ? value.as_string() : json::write(value));
    }
    out << "\n";
    return 0;
  }
  const json::Value* rows = body.value().find("rows");
  if (rows == nullptr || !rows->is_array()) return fail(err, "malformed query response");
  for (const json::Value& row : rows->as_array()) {
    print_remote_row(row, out);
  }
  out << rows->as_array().size() << " row(s)\n";
  return 0;
}

int cmd_stats_remote(const std::string& url, const ParsedArgs& args, std::ostream& out,
                     std::ostream& err) {
  if (args.positional.size() != 1) {
    return fail(err, "stats --url takes a document name");
  }
  auto parsed = net::parse_url(url);
  if (!parsed.ok()) return fail(err, parsed.error().to_string());
  net::HttpClient client(parsed.value().host, parsed.value().port);
  auto response = client.get(parsed.value().base_path + "/api/v0/documents/" +
                             args.positional[0] + "/stats");
  if (!response.ok()) return fail(err, response.error().to_string());
  if (response.value().status != 200) {
    return fail(err, "stats failed: " + response.value().body);
  }
  out << response.value().body << "\n";
  return 0;
}

// ----------------------------------------------------------------- serve

std::atomic<net::HttpServer*> g_serving{nullptr};

void serve_signal_handler(int) {
  net::HttpServer* server = g_serving.load();
  if (server != nullptr) server->request_stop();  // async-signal-safe
}

int cmd_serve(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (!args.positional.empty()) return fail(err, "serve takes only options");
  net::ServerConfig config;
  const auto port = args.options.find("port");
  if (port != args.options.end()) {
    const auto value = strings::to_int64(port->second);
    if (!value || *value < 0 || *value > 65535) return fail(err, "invalid --port");
    config.port = static_cast<std::uint16_t>(*value);
  }
  const auto threads = args.options.find("threads");
  if (threads != args.options.end()) {
    const auto value = strings::to_int64(threads->second);
    if (!value || *value < 1 || *value > 256) return fail(err, "invalid --threads");
    config.threads = static_cast<unsigned>(*value);
  }
  const auto max_conns = args.options.find("max-connections");
  if (max_conns != args.options.end()) {
    const auto value = strings::to_int64(max_conns->second);
    if (!value || *value < 1) return fail(err, "invalid --max-connections (>= 1)");
    config.max_connections = static_cast<std::size_t>(*value);
  }

  net::YProvHttpApp::Options app_options;
  const auto cache = args.options.find("cache");
  if (cache != args.options.end()) {
    const auto value = strings::to_int64(cache->second);
    if (!value || *value < 0 || *value > 1000000) return fail(err, "invalid --cache");
    app_options.cache_capacity = static_cast<std::size_t>(*value);
  }

  // Durability options: --data-dir puts the WAL under the service, so
  // every acknowledged PUT/DELETE is on disk before the response leaves.
  std::string data_dir;
  const auto data_dir_opt = args.options.find("data-dir");
  if (data_dir_opt != args.options.end()) data_dir = data_dir_opt->second;
  wal::Options wal_options;
  const auto fsync_mode = args.options.find("fsync");
  if (fsync_mode != args.options.end()) {
    const auto policy = wal::parse_fsync_policy(fsync_mode->second);
    if (!policy.ok()) return fail(err, "invalid --fsync (every_write|interval|none)");
    wal_options.fsync_policy = policy.value();
  }
  const auto segment_bytes = args.options.find("wal-segment-bytes");
  if (segment_bytes != args.options.end()) {
    const auto value = strings::to_int64(segment_bytes->second);
    if (!value || *value < 1024) return fail(err, "invalid --wal-segment-bytes (>= 1024)");
    wal_options.segment_bytes = static_cast<std::size_t>(*value);
  }
  if (data_dir.empty() &&
      (fsync_mode != args.options.end() || segment_bytes != args.options.end())) {
    return fail(err, "--fsync/--wal-segment-bytes require --data-dir");
  }

  net::YProvHttpApp app(graphstore::YProvService(), app_options);
  if (!data_dir.empty()) {
    Status attached = app.service().attach_wal(data_dir, wal_options);
    if (!attached.ok()) return fail(err, attached.error().to_string());
    out << "loaded " << app.service().document_count() << " document(s) from "
        << data_dir << " (wal lsn " << app.service().wal_stats().last_lsn << ")\n";
  }

  net::HttpServer server(config,
                         [&app](const net::HttpRequest& r) { return app.handle(r); });
  // Serving threads log concurrently; serialize writes to the shared stream.
  auto log_mutex = std::make_shared<std::mutex>();
  server.set_access_logger([&out, log_mutex](const std::string& line) {
    const std::lock_guard<std::mutex> lock(*log_mutex);
    out << line << "\n";
  });
  // /api/v0/health reports the server's gauges alongside app counters.
  app.set_server_stats_provider([&server] { return server.stats(); });
  Status started = server.start();
  if (!started.ok()) return fail(err, started.error().to_string());
  out << "yprov service listening on http://" << config.host << ":" << server.port()
      << " (" << config.threads << " serving thread(s) on one epoll set, ";
  if (config.max_connections > 0) {
    out << "max " << config.max_connections << " connection(s), ";
  }
  out << "Ctrl-C to stop)\n";

  g_serving.store(&server);
  const auto previous_int = std::signal(SIGINT, serve_signal_handler);
  const auto previous_term = std::signal(SIGTERM, serve_signal_handler);
  server.wait();
  (void)std::signal(SIGINT, previous_int);
  (void)std::signal(SIGTERM, previous_term);
  g_serving.store(nullptr);

  if (!data_dir.empty()) {
    // Everything acknowledged is already in the log; compaction just folds
    // the tail into a snapshot so the next start replays less.
    Status compacted = app.service().wal_compact();
    if (!compacted.ok()) return fail(err, compacted.error().to_string());
    out << "store compacted at " << data_dir << " (wal lsn "
        << app.service().wal_stats().last_lsn << ")\n";
  }
  const net::ServerStats stats = server.stats();
  out << "server stopped after " << stats.requests_handled << " request(s)\n";
  return 0;
}

}  // namespace

std::string usage() {
  return "usage: yprov <command> [args]\n"
         "commands:\n"
         "  validate <file>                     check a PROV-JSON document\n"
         "  stats <file>                        element/relation counts\n"
         "  stats --url <svc> <name>            stats of a served document\n"
         "  convert <file> --to provn|dot|ttl|xml [--out <path>]\n"
         "                                      re-serialize a document\n"
         "  constraints <file>                  PROV-CONSTRAINTS checks\n"
         "  timeline <file>                     Gantt view of run activities\n"
         "  subgraph <file> <id> [--hops N] [--out <path>]\n"
         "  diff <a> <b>                        compare two run documents\n"
         "  lineage <file> <id> [--direction up|down] [--depth N]\n"
         "  ingest <store> <name=file>...       add documents to a store\n"
         "  ingest --url <svc> <name=file>...   upload documents over HTTP\n"
         "  list <store>                        list stored documents\n"
         "  get <store> <name> [--element <id>] query the store\n"
         "  query <store> '<MATCH ...>' [--explain] [--page-size N]\n"
         "                                      pattern query over the graph\n"
         "                                      (aggregates, *1..n paths,\n"
         "                                      ORDER BY/SKIP/LIMIT);\n"
         "                                      --explain prints the plan;\n"
         "                                      --page-size streams rows N at\n"
         "                                      a time through a cursor\n"
         "  query --url <svc> '<MATCH ...>' [--explain] [--page-size N]\n"
         "                                      the same over HTTP (pages\n"
         "                                      via the cursor protocol)\n"
         "  serve [--port N] [--threads K] [--data-dir DIR] [--cache N]\n"
         "        [--max-connections N] [--fsync every_write|interval|none]\n"
         "        [--wal-segment-bytes N]\n"
         "                                      run the yProv HTTP service;\n"
         "                                      --data-dir persists writes via a WAL\n"
         "  fit <store>                         fit the scaling law to stored runs\n"
         "  predict <store> <output> k=v... [--k N]\n"
         "                                      k-NN forecast from stored runs\n"
         "  report <store>                      tabulate run outputs\n"
         "  crate <dir> [--name <n>]            wrap a directory as an RO-Crate\n"
         "  pack <in> <out> [--codec lzss]      compress a file\n"
         "  unpack <in> <out>                   decompress a container\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  const ParsedArgs parsed = parse_args(args, 1);
  const auto known = known_options().find(command);
  if (known != known_options().end()) {
    for (const auto& [name, value] : parsed.options) {
      if (known->second.count(name) == 0) return fail(err, "unknown option --" + name);
    }
  }
  if (command == "validate") return cmd_validate(parsed, out, err);
  if (command == "constraints") return cmd_constraints(parsed, out, err);
  if (command == "timeline") return cmd_timeline(parsed, out, err);
  if (command == "subgraph") return cmd_subgraph(parsed, out, err);
  if (command == "query") {
    const bool explain = parsed.options.count("explain") != 0;
    std::size_t page_size = 0;  // 0 = one-shot (no paging)
    const auto page_opt = parsed.options.find("page-size");
    if (page_opt != parsed.options.end()) {
      const auto value = strings::to_int64(page_opt->second);
      if (!value || *value < 1) return fail(err, "invalid --page-size (>= 1)");
      page_size = static_cast<std::size_t>(*value);
    }
    if (parsed.options.count("url") != 0) {
      if (parsed.positional.size() != 1) {
        return fail(err, "query --url takes a MATCH query (no store dir)");
      }
      return cmd_query_remote(parsed.options.at("url"), parsed.positional[0], explain,
                              page_size, out, err);
    }
    return cmd_query(parsed, explain, page_size, out, err);
  }
  if (command == "serve") return cmd_serve(parsed, out, err);
  if (command == "fit") return cmd_fit(parsed, out, err);
  if (command == "predict") return cmd_predict(parsed, out, err);
  if (command == "report") return cmd_report(parsed, out, err);
  if (command == "crate") return cmd_crate(parsed, out, err);
  if (command == "stats") {
    if (parsed.options.count("url") != 0) {
      return cmd_stats_remote(parsed.options.at("url"), parsed, out, err);
    }
    return cmd_stats(parsed, out, err);
  }
  if (command == "convert") return cmd_convert(parsed, out, err);
  if (command == "diff") return cmd_diff(parsed, out, err);
  if (command == "lineage") return cmd_lineage(parsed, out, err);
  if (command == "ingest") {
    if (parsed.options.count("url") != 0) {
      return cmd_ingest_remote(parsed.options.at("url"), parsed, out, err);
    }
    return cmd_ingest(parsed, out, err);
  }
  if (command == "list") return cmd_list(parsed, out, err);
  if (command == "get") return cmd_get(parsed, out, err);
  if (command == "pack") return cmd_pack(parsed, out, err);
  if (command == "unpack") return cmd_unpack(parsed, out, err);
  err << "unknown command: " << command << "\n" << usage();
  return 1;
}

}  // namespace provml::cli
