#include "provml/graphstore/service.hpp"

#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <utility>

#include "provml/common/strings.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/prov/prov_json.hpp"

namespace provml::graphstore {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kDocumentsPrefix = "/api/v0/documents";

Response error_response(int status, const std::string& message) {
  json::Object body;
  body.set("error", message);
  return Response{status, json::write(json::Value(std::move(body))), ""};
}

/// 405 for a known route: the permitted methods travel both in the JSON
/// body and in Response::allow, which HTTP front-ends surface as a real
/// Allow: response header (RFC 9110 §10.2.1).
Response method_not_allowed(const std::string& allow) {
  json::Object body;
  body.set("error", "method not allowed");
  body.set("allow", allow);
  return Response{405, json::write(json::Value(std::move(body))), allow};
}

/// Whether a mutation failed in the durability layer (as opposed to being
/// rejected as invalid input): such errors map to 500, not 400.
bool is_wal_error(const Error& error) {
  return strings::starts_with(error.message, "wal: ");
}

/// Tags an error from the WAL layer so routes can classify it as 5xx.
Error wal_error(const Error& error) {
  return strings::starts_with(error.message, "wal: ")
             ? error
             : Error{"wal: " + error.message, error.where};
}

/// The document a PUT/DELETE targets, when the path is the single-segment
/// document route — the only routes that mutate. Everything else (unknown
/// paths, deeper GET-only routes, the collection listing) can only produce
/// 4xx under a write method, so callers take the lock shared.
std::optional<std::string> write_target(const std::string& path) {
  if (!strings::starts_with(path, kDocumentsPrefix)) return std::nullopt;
  std::string rest = path.substr(kDocumentsPrefix.size());
  if (!rest.empty() && rest.front() == '/') rest.erase(0, 1);
  if (rest.empty()) return std::nullopt;
  const std::vector<std::string> parts = strings::split(rest, '/');
  if (parts.size() != 1) return std::nullopt;
  return parts[0];
}

/// Renders one result row as the wire object: cells keyed by column name,
/// node columns resolved to the bound node's prov_id (null when absent).
json::Value row_object(const PropertyGraph& graph,
                       const std::vector<ResultSet::Column>& columns,
                       const std::vector<json::Value>& row) {
  json::Object row_json;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const ResultSet::Column& column = columns[c];
    if (!column.is_node) {
      row_json.set(column.name, row[c]);
      continue;
    }
    const Node* n = graph.node(static_cast<NodeId>(row[c].as_int()));
    const json::Value* prov_id = n != nullptr ? n->properties.find("prov_id") : nullptr;
    row_json.set(column.name, prov_id != nullptr ? *prov_id : json::Value(nullptr));
  }
  return json::Value(std::move(row_json));
}

/// Parses stored (or PUT) PROV-JSON bytes into a document.
Expected<prov::Document> parse_prov_json(std::string_view body) {
  Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return parsed.error();
  return prov::from_prov_json(parsed.value());
}

json::Value edge_summary(const PropertyGraph& graph, const Edge& e, bool outgoing) {
  json::Object obj;
  obj.set("type", e.type);
  const Node* other = graph.node(outgoing ? e.to : e.from);
  const json::Value* other_id =
      other != nullptr ? other->properties.find("prov_id") : nullptr;
  obj.set(outgoing ? "to" : "from",
          other_id != nullptr ? *other_id : json::Value(nullptr));
  return obj;
}

}  // namespace

YProvService::YProvService(std::size_t /*ignored*/) {}

YProvService::YProvService(YProvService&& other) noexcept
    : version_(other.version_.load()),
      documents_(std::move(other.documents_)),
      graph_(std::move(other.graph_)),
      wal_(std::move(other.wal_)) {}

YProvService& YProvService::operator=(YProvService&& other) noexcept {
  if (this != &other) {
    documents_ = std::move(other.documents_);
    graph_ = std::move(other.graph_);
    wal_ = std::move(other.wal_);
    version_.store(other.version_.load());
    // Any open cursors walked the graph storage just replaced; the
    // registry is not transferable either (the source's cursors point
    // into the source's moved-from graph). Moves are setup-time, so
    // simply start empty.
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    cursors_.clear();
  }
  return *this;
}

Status YProvService::put_document(const std::string& name, const prov::Document& doc) {
  std::string body = prov::to_prov_json_string(doc, /*pretty=*/false);
  const std::unique_lock lock(mutex_);
  return put_document_impl(name, doc, std::move(body));
}

Status YProvService::put_document_impl(const std::string& name, const prov::Document& doc,
                                       std::string body) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Error{"invalid document name", name};
  }
  // Apply to the graph first (ingest can reject the document), log second,
  // store and acknowledge last. A failure puts the previous document back,
  // so the log holds exactly the acknowledged mutations — never more.
  std::optional<std::string> previous;
  if (const auto it = documents_.find(name); it != documents_.end()) {
    previous = std::move(it->second);
    documents_.erase(it);
    remove_document(graph_, name);  // replace semantics: drop the old nodes
  }
  auto rollback = [&] {
    remove_document(graph_, name);  // sweep any partially ingested nodes
    if (previous.has_value()) restore_document(name, std::move(*previous));
  };
  Expected<IngestStats> stats = ingest_document(graph_, doc, name);
  if (!stats.ok()) {
    rollback();
    return stats.error();
  }
  if (wal_ != nullptr) {
    // The record borrows the bytes for the append and hands them back.
    wal::Record record{wal::Record::Type::kPutDocument, name, std::move(body)};
    Expected<wal::Lsn> lsn = wal_->append(record);
    body = std::move(record.body);
    if (!lsn.ok()) {
      rollback();
      return wal_error(lsn.error());
    }
  }
  documents_.emplace(name, std::move(body));
  bump_version();
  return Status::ok_status();
}

void YProvService::restore_document(const std::string& name, std::string body) {
  // The bytes parsed and ingested successfully once, so neither step fails.
  Expected<prov::Document> doc = parse_prov_json(body);
  if (doc.ok()) (void)ingest_document(graph_, doc.value(), name);
  documents_[name] = std::move(body);
}

Status YProvService::rebuild_graph() {
  PropertyGraph fresh;
  for (const auto& [name, body] : documents_) {
    Expected<json::Value> parsed = json::parse(body);
    if (!parsed.ok()) {
      return Error{"wal-recovered document does not parse: " + parsed.error().message, name};
    }
    Expected<prov::Document> doc = prov::from_prov_json(parsed.value());
    if (!doc.ok()) {
      return Error{"wal-recovered document is not PROV-JSON: " + doc.error().message, name};
    }
    // Stored documents ingested successfully once; a failure here would
    // indicate internal inconsistency, so drop the offender quietly.
    (void)ingest_document(fresh, doc.value(), name);
  }
  graph_ = std::move(fresh);
  return Status::ok_status();
}

std::optional<prov::Document> YProvService::get_document(const std::string& name) const {
  const std::shared_lock lock(mutex_);
  const auto it = documents_.find(name);
  if (it == documents_.end()) return std::nullopt;
  Expected<prov::Document> doc = parse_prov_json(it->second);
  if (!doc.ok()) return std::nullopt;
  return std::move(doc.value());
}

bool YProvService::delete_document(const std::string& name) {
  const std::unique_lock lock(mutex_);
  const Expected<bool> deleted = delete_document_impl(name);
  return deleted.ok() && deleted.value();
}

Expected<bool> YProvService::delete_document_impl(const std::string& name) {
  if (documents_.count(name) == 0) return false;
  // Deletion of a present document cannot fail in memory, so the record
  // can be logged first — no rollback path needed.
  if (wal_ != nullptr) {
    Expected<wal::Lsn> lsn =
        wal_->append({wal::Record::Type::kDeleteDocument, name, std::string()});
    if (!lsn.ok()) return wal_error(lsn.error());
  }
  documents_.erase(name);
  remove_document(graph_, name);
  bump_version();
  return true;
}

std::vector<std::string> YProvService::list_documents() const {
  const std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(documents_.size());
  for (const auto& [name, doc] : documents_) names.push_back(name);
  return names;
}

std::size_t YProvService::document_count() const {
  const std::shared_lock lock(mutex_);
  return documents_.size();
}

Expected<IngestStats> YProvService::put_documents(
    const std::vector<std::pair<std::string, prov::Document>>& docs) {
  // Validation and serialization read only the input, so they run unlocked.
  std::vector<std::string> bodies;  ///< canonical bytes by input index
  bodies.reserve(docs.size());
  for (const auto& [name, doc] : docs) {
    if (name.empty() || name.find('/') != std::string::npos) {
      return Error{"invalid document name", name};
    }
    bodies.push_back(prov::to_prov_json_string(doc, /*pretty=*/false));
  }

  const std::unique_lock lock(mutex_);
  // The bytes each applied document replaced, by input index.
  std::vector<std::optional<std::string>> previous(docs.size());
  // Undoes document `i`: removes it and restores what it replaced. Undoing
  // newest first leaves a name the batch repeats at its pre-batch bytes.
  auto undo = [&](std::size_t i) {
    const std::string& name = docs[i].first;
    remove_document(graph_, name);
    documents_.erase(name);
    if (previous[i].has_value()) restore_document(name, std::move(*previous[i]));
  };

  // Apply in input order. An ingest error rolls the whole batch back
  // (nothing was logged yet), keeping batch semantics all-or-nothing.
  IngestStats total;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const auto& [name, doc] = docs[i];
    if (const auto it = documents_.find(name); it != documents_.end()) {
      previous[i] = std::move(it->second);
      documents_.erase(it);
      remove_document(graph_, name);
    }
    Expected<IngestStats> stats = ingest_document(graph_, doc, name);
    if (!stats.ok()) {
      for (std::size_t j = i + 1; j-- > 0;) undo(j);
      return stats.error();
    }
    documents_[name] = bodies[i];
    total.nodes_added += stats.value().nodes_added;
    total.edges_added += stats.value().edges_added;
    total.elements_merged += stats.value().elements_merged;
  }

  // Log in input order so recovery replays the same sequence. A WAL
  // failure keeps the logged prefix applied (memory == log == what
  // recovery reproduces) and rolls back the unlogged suffix.
  if (wal_ != nullptr) {
    for (std::size_t k = 0; k < docs.size(); ++k) {
      Expected<wal::Lsn> lsn = wal_->append(
          {wal::Record::Type::kPutDocument, docs[k].first, std::move(bodies[k])});
      if (!lsn.ok()) {
        for (std::size_t j = docs.size(); j-- > k;) undo(j);
        if (k > 0) bump_version();  // the logged prefix stays applied
        return wal_error(lsn.error());
      }
    }
  }
  if (!docs.empty()) bump_version();
  return total;
}

Response YProvService::handle(const Request& request) {
  // PUT/DELETE on a document route mutate: they take the lock exclusively.
  // Everything else — reads, and write methods on routes that can only
  // 4xx — takes it shared.
  if (request.method == "PUT" || request.method == "DELETE") {
    if (const std::optional<std::string> name = write_target(request.path)) {
      if (request.method == "PUT") return put_route(*name, request.body);
      const std::unique_lock lock(mutex_);
      return route(request);
    }
  }
  const std::shared_lock lock(mutex_);
  return route(request);
}

Response YProvService::put_route(const std::string& name, const std::string& body) {
  // Parsing and validation read only the request, so they run before
  // put_document() serializes (also unlocked) and takes the lock.
  Expected<prov::Document> doc = parse_prov_json(body);
  if (!doc.ok()) return error_response(400, doc.error().to_string());
  Status s = put_document(name, doc.value());
  if (!s.ok()) {
    return error_response(is_wal_error(s.error()) ? 500 : 400, s.error().to_string());
  }
  return Response{201, "{}", ""};
}

Response YProvService::route(const Request& request) {
  // POST /api/v0/query — body is a MATCH query; the response lists rows
  // keyed by RETURN column name. Node columns render as the bound node's
  // prov_id, aggregate columns as their computed value.
  if (request.path == "/api/v0/query") {
    if (request.method != "POST") return method_not_allowed("POST");
    // A body that is a JSON object is the cursor envelope
    // {"query": ..., "page_size": N}; MATCH text can never start with '{',
    // so the two forms are unambiguous and the raw-text form stays
    // wire-compatible with pre-cursor clients.
    if (strings::starts_with(strings::trim(request.body), "{")) {
      return query_paged(request.body);
    }
    Expected<ResultSet> table = execute_query(graph_, request.body);
    if (!table.ok()) return error_response(400, table.error().to_string());
    json::Array rows_json;
    for (const std::vector<json::Value>& row : table.value().rows) {
      rows_json.push_back(row_object(graph_, table.value().columns, row));
    }
    json::Object body;
    body.set("rows", std::move(rows_json));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  // POST /api/v0/query/next — resumes a server-side cursor registered by a
  // paged /api/v0/query. Stateful: never cached, never 304'd.
  if (request.path == "/api/v0/query/next") {
    if (request.method != "POST") return method_not_allowed("POST");
    return query_next(request.body);
  }

  // POST /api/v0/explain — body is a MATCH query; the response is the
  // cost-based plan (anchor choice, orientation, and the estimates that
  // drove them) without executing anything.
  if (request.path == "/api/v0/explain") {
    if (request.method != "POST") return method_not_allowed("POST");
    Expected<Query> query = parse_query(request.body);
    if (!query.ok()) return error_response(400, query.error().to_string());
    const QueryPlan plan = explain_query(graph_, query.value());
    json::Object body;
    switch (plan.anchor) {
      case QueryPlan::Anchor::kScanAll: body.set("anchor", "scan_all"); break;
      case QueryPlan::Anchor::kLabel: body.set("anchor", "label"); break;
      case QueryPlan::Anchor::kProperty: body.set("anchor", "property"); break;
    }
    if (!plan.label.empty()) body.set("label", plan.label);
    if (!plan.property_key.empty()) body.set("property_key", plan.property_key);
    body.set("reversed", plan.reversed);
    body.set("estimated_candidates",
             static_cast<std::int64_t>(plan.estimated_candidates));
    body.set("estimated_rows", plan.estimated_rows);
    body.set("estimated_cost", plan.estimated_cost);
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (!strings::starts_with(request.path, kDocumentsPrefix)) {
    return error_response(404, "unknown route");
  }
  std::string rest = request.path.substr(kDocumentsPrefix.size());
  if (!rest.empty() && rest.front() == '/') rest.erase(0, 1);

  // GET /api/v0/documents — list.
  if (rest.empty()) {
    if (request.method != "GET") return method_not_allowed("GET");
    json::Array names;
    for (const auto& [name, doc] : documents_) names.emplace_back(name);
    json::Object body;
    body.set("documents", std::move(names));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  const std::vector<std::string> parts = strings::split(rest, '/');
  const std::string& name = parts[0];

  // A PUT here never reaches route(): handle() sends it to put_route().
  if (parts.size() == 1) {
    if (request.method == "GET") {
      const auto it = documents_.find(name);
      if (it == documents_.end()) return error_response(404, "document not found");
      return Response{200, it->second, ""};
    }
    if (request.method == "DELETE") {
      const Expected<bool> deleted = delete_document_impl(name);
      if (!deleted.ok()) return error_response(500, deleted.error().to_string());
      if (!deleted.value()) return error_response(404, "document not found");
      return Response{200, "{}", ""};
    }
    return method_not_allowed("GET, PUT, DELETE");
  }

  if (request.method != "GET") return method_not_allowed("GET");
  if (documents_.count(name) == 0) {
    return error_response(404, "document not found");
  }

  if (parts.size() == 2 && parts[1] == "stats") {
    json::Object body;
    body.set("document", name);
    body.set("nodes", graph_.count_with_property("Prov", "document", json::Value(name)));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (parts.size() >= 3 && parts[1] == "subgraph") {
    // GET /api/v0/documents/<name>/subgraph/<id> — ids of the 2-hop
    // neighbourhood (the Explorer's focus view).
    std::string element_id = parts[2];
    for (std::size_t i = 3; i < parts.size(); ++i) element_id += "/" + parts[i];
    const std::optional<NodeId> node_id = find_prov_node(graph_, name, element_id);
    if (!node_id) return error_response(404, "element not found");
    json::Array nodes;
    nodes.push_back(json::Value(element_id));
    for (const NodeId reached : graph_.reachable(*node_id, Direction::kBoth, 2)) {
      const json::Value* prov_id = graph_.node(reached)->properties.find("prov_id");
      if (prov_id != nullptr) nodes.push_back(*prov_id);
    }
    json::Object body;
    body.set("center", element_id);
    body.set("nodes", std::move(nodes));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (parts.size() >= 3 && parts[1] == "elements") {
    // Element ids may themselves contain '/' (e.g. "ex:param/lr"): re-join.
    std::string element_id = parts[2];
    for (std::size_t i = 3; i < parts.size(); ++i) element_id += "/" + parts[i];
    const std::optional<NodeId> node_id = find_prov_node(graph_, name, element_id);
    if (!node_id) return error_response(404, "element not found");
    const Node* n = graph_.node(*node_id);
    json::Object body;
    body.set("id", element_id);
    json::Array labels;
    for (const std::string& label : n->labels) labels.emplace_back(label);
    body.set("labels", std::move(labels));
    body.set("properties", n->properties);
    json::Array outgoing;
    for (const EdgeId eid : graph_.edges_of(*node_id, Direction::kOut)) {
      outgoing.push_back(edge_summary(graph_, *graph_.edge(eid), true));
    }
    json::Array incoming;
    for (const EdgeId eid : graph_.edges_of(*node_id, Direction::kIn)) {
      incoming.push_back(edge_summary(graph_, *graph_.edge(eid), false));
    }
    body.set("outgoing", std::move(outgoing));
    body.set("incoming", std::move(incoming));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  return error_response(404, "unknown route");
}

// ---------------------------------------------------------- cursor protocol

void YProvService::set_cursor_limits(std::size_t max_open, std::chrono::milliseconds ttl) {
  const std::lock_guard<std::mutex> guard(cursor_mutex_);
  cursor_capacity_ = max_open;
  cursor_ttl_ = ttl;
}

CursorStats YProvService::cursor_stats() {
  const std::lock_guard<std::mutex> guard(cursor_mutex_);
  reap_cursors_locked(std::chrono::steady_clock::now());
  return CursorStats{cursors_.size(), cursors_expired_};
}

void YProvService::reap_cursors_locked(std::chrono::steady_clock::time_point now) {
  // Drops both timed-out cursors and ones a write already invalidated
  // (version pin moved on) — neither can ever serve another page, so
  // `open` always counts exactly the resumable cursors.
  const std::uint64_t version = graph_version();
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->second.expires_at <= now || it->second.version != version) {
      it = cursors_.erase(it);
      ++cursors_expired_;
    } else {
      ++it;
    }
  }
}

std::string YProvService::page_body(QueryCursor& cursor,
                                    const std::vector<ResultSet::Column>& columns,
                                    std::size_t page_size,
                                    const std::string& token) const {
  json::Array columns_json;
  for (const ResultSet::Column& column : columns) columns_json.emplace_back(column.name);
  json::Array rows_json;
  for (const std::vector<json::Value>& row : cursor.next(page_size)) {
    rows_json.push_back(row_object(graph_, columns, row));
  }
  json::Object body;
  body.set("columns", std::move(columns_json));
  body.set("rows", std::move(rows_json));
  body.set("done", cursor.done());
  if (!cursor.done()) body.set("cursor", token);
  return json::write(json::Value(std::move(body)));
}

Response YProvService::query_paged(const std::string& body) {
  Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return error_response(400, parsed.error().to_string());
  const json::Value* query_text = parsed.value().find("query");
  if (query_text == nullptr || !query_text->is_string()) {
    return error_response(400, "envelope requires a string \"query\" field");
  }
  std::size_t page_size = std::numeric_limits<std::size_t>::max();
  if (const json::Value* n = parsed.value().find("page_size")) {
    if (!n->is_int() || n->as_int() < 1) {
      return error_response(400, "\"page_size\" must be a positive integer");
    }
    page_size = static_cast<std::size_t>(n->as_int());
  }
  Expected<QueryCursor> cursor = QueryCursor::open(graph_, query_text->as_string());
  if (!cursor.ok()) return error_response(400, cursor.error().to_string());

  std::vector<ResultSet::Column> columns = cursor.value().columns();
  std::string token;
  {
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    token = "c" + std::to_string(++next_cursor_id_);
  }
  std::string page = page_body(cursor.value(), columns, page_size, token);
  if (!cursor.value().done()) {
    // More rows remain: register the cursor under its token. The caller
    // holds the lock shared, so the version we pin cannot move before the
    // response leaves route().
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    reap_cursors_locked(now);
    while (cursors_.size() >= cursor_capacity_ && !cursors_.empty()) {
      auto victim = cursors_.begin();
      for (auto it = cursors_.begin(); it != cursors_.end(); ++it) {
        if (it->second.lru_seq < victim->second.lru_seq) victim = it;
      }
      cursors_.erase(victim);
      ++cursors_expired_;
    }
    cursors_.emplace(token, OpenCursor{std::move(cursor.value()), std::move(columns),
                                       graph_version(), page_size,
                                       now + cursor_ttl_, ++cursor_seq_});
  }
  return Response{200, std::move(page), "", true};
}

Response YProvService::query_next(const std::string& body) {
  Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return error_response(400, parsed.error().to_string());
  const json::Value* token_value = parsed.value().find("cursor");
  if (token_value == nullptr || !token_value->is_string()) {
    return error_response(400, "body requires a string \"cursor\" field");
  }
  const std::string& token = token_value->as_string();

  // Check the cursor out of the registry. The page itself runs under the
  // shared lock route() already holds, so the graph (and its version) are
  // stable while next() walks it — the registry mutex only guards the map,
  // never spans the walk of another cursor.
  std::optional<OpenCursor> open;
  {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    reap_cursors_locked(now);
    auto it = cursors_.find(token);
    if (it == cursors_.end()) {
      return error_response(410, "unknown or expired cursor");
    }
    if (it->second.version != graph_version()) {
      // A write landed since the cursor was opened: its pages would mix
      // two graph states (and the cursor's pointers walk rebuilt
      // storage). Invalidate instead of serving a torn result.
      cursors_.erase(it);
      ++cursors_expired_;
      return error_response(410, "cursor invalidated by a concurrent write");
    }
    open.emplace(std::move(it->second));
    cursors_.erase(it);
  }

  std::string page = page_body(open->cursor, open->columns, open->page_size, token);
  if (!open->cursor.done()) {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    open->expires_at = now + cursor_ttl_;
    open->lru_seq = ++cursor_seq_;
    cursors_.emplace(token, std::move(*open));
  }
  return Response{200, std::move(page), "", true};
}

// --------------------------------------------------------------- durability

Status YProvService::attach_wal(const std::string& dir, wal::Options options) {
  const std::unique_lock lock(mutex_);
  if (wal_ != nullptr) return Error{"a WAL is already attached", wal_->dir()};
  if (!documents_.empty()) {
    return Error{"attach_wal requires an empty service (it hydrates from the store)",
                 dir};
  }
  Expected<std::unique_ptr<wal::DurableStore>> store = wal::DurableStore::open(dir, options);
  if (!store.ok()) return store.error();
  // Move the recovered bytes out of the store: the document map keeps the
  // only copy.
  documents_ = std::move(store.value()->recovered().documents);
  if (Status rebuilt = rebuild_graph(); !rebuilt.ok()) {
    documents_.clear();
    return rebuilt;
  }
  wal_ = std::move(store.value());
  bump_version();
  return Status::ok_status();
}

wal::Stats YProvService::wal_stats() const {
  const std::shared_lock lock(mutex_);
  return wal_ != nullptr ? wal_->stats() : wal::Stats{};
}

Status YProvService::wal_compact() {
  // compact() coordinates with appenders through the store's own locks;
  // taking the lock exclusively here would only serialize it against reads.
  const std::shared_lock lock(mutex_);
  if (wal_ == nullptr) return Status::ok_status();
  return wal_->compact();
}

Status YProvService::save(const std::string& dir) const {
  const std::shared_lock lock(mutex_);
  if (wal_ != nullptr &&
      fs::weakly_canonical(wal_->dir()) == fs::weakly_canonical(dir)) {
    // The WAL already holds every acknowledged mutation; saving into the
    // same store just means folding the tail into a snapshot.
    return wal_->compact();
  }
  return wal::replace_store(dir, documents_);
}

Expected<YProvService> YProvService::load(const std::string& dir) {
  if (!wal::store_exists(dir)) return Error{"no store found", dir};
  Expected<wal::RecoveredState> recovered = wal::recover(dir);
  if (!recovered.ok()) return recovered.error();
  // The service is not shared yet, so no lock needs taking.
  YProvService service;
  service.documents_ = std::move(recovered.value().documents);
  if (Status rebuilt = service.rebuild_graph(); !rebuilt.ok()) return rebuilt.error();
  service.bump_version();
  return service;
}

}  // namespace provml::graphstore
