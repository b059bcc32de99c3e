// In-process yProv service facade. The real yProv exposes a RESTful API
// over a Neo4j back-end; this class reproduces the interface shape as an
// embeddable router so the CLI, tests, and examples exercise the same
// routes the paper's yProv Explorer consumes:
//   GET    /api/v0/documents                      → list document names
//   PUT    /api/v0/documents/<name>               → upload PROV-JSON body
//   GET    /api/v0/documents/<name>               → the stored PROV-JSON
//   DELETE /api/v0/documents/<name>               → remove document
//   GET    /api/v0/documents/<name>/elements/<id> → one element + edges
//   GET    /api/v0/documents/<name>/stats         → node/edge counts
//
// Concurrency — one reader/writer lock. The service owns one
// `std::shared_mutex` over its document map and graph:
//   · reads (GET routes, POST /api/v0/query, list/count) take it shared,
//     so any number run together;
//   · PUT, DELETE, put_documents and attach_wal take it exclusive.
// Every successful mutation bumps one monotonic graph version (an atomic
// read without the lock), which HTTP front-ends use as a response cache
// key. The reference accessor graph() bypasses the lock and is for
// single-threaded embedders or setup/teardown.
//
// Storage: each document is held once, as its canonical compact PROV-JSON
// bytes (`to_prov_json_string(doc, false)`) beside its subgraph. A PUT
// parses, validates and serializes its body before taking the lock; under
// the lock it only ingests, logs those same bytes and stores them. GET and
// save() hand the bytes out verbatim; get_document() and the rollback
// paths re-parse them on demand.
//
// Bulk ingest (put_documents) serializes its documents unlocked, then
// applies them in input order under one exclusive acquisition.
//
// Durability: attach_wal(dir) puts a write-ahead log under the service —
// every successful PUT/DELETE appends a logical record (and fsyncs, per
// policy) before the call returns, and recovery replays snapshot + log
// tail, so acknowledged writes survive kill -9. Appends arrive one at a
// time under the exclusive lock, so the log order is the order in which
// mutations were applied.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/prov/model.hpp"
#include "provml/wal/wal.hpp"

namespace provml::graphstore {

struct Request {
  std::string method;  ///< "GET", "PUT", "DELETE"
  std::string path;
  std::string body;    ///< PROV-JSON for PUT
};

struct Response {
  int status = 200;    ///< HTTP-style code: 200, 201, 400, 404, 405, 410, 500
  std::string body;    ///< JSON payload or error message
  std::string allow;   ///< permitted methods; set iff status == 405, so HTTP
                       ///< front-ends can emit a real Allow: header
  bool no_store = false;  ///< response is cursor-stateful: HTTP front-ends
                          ///< must not cache it or serve it via ETag
};

/// Open-cursor observability for /api/v0/health.
struct CursorStats {
  std::size_t open = 0;      ///< cursors currently resumable
  std::uint64_t expired = 0; ///< cumulative TTL reaps + LRU evictions +
                             ///< version invalidations
};

class YProvService {
 public:
  /// The argument is ignored. It remains only so that callers written
  /// against the earlier one-argument constructor still compile; build new
  /// services with `YProvService()`.
  explicit YProvService(std::size_t /*ignored*/ = 1);
  // Movable so load() and snapshot swaps work; moves are setup-time
  // operations on unshared instances.
  YProvService(YProvService&& other) noexcept;
  YProvService& operator=(YProvService&& other) noexcept;

  /// Dispatches a request to the matching route. Thread-safe: read-only
  /// methods run under the shared lock, PUT/DELETE under the exclusive one.
  [[nodiscard]] Response handle(const Request& request);

  // Direct (non-HTTP) API used by the CLI and embedders. All of it locks
  // internally.
  [[nodiscard]] Status put_document(const std::string& name, const prov::Document& doc);
  /// The stored document, parsed from its bytes; nullopt when absent.
  [[nodiscard]] std::optional<prov::Document> get_document(const std::string& name) const;
  [[nodiscard]] bool delete_document(const std::string& name);
  [[nodiscard]] std::vector<std::string> list_documents() const;
  [[nodiscard]] std::size_t document_count() const;

  /// Bulk PROV ingest: applies the documents in input order under one
  /// exclusive acquisition, then logs them in the same order. On an ingest
  /// error the whole batch is rolled back; on a WAL error the already-logged
  /// prefix stays applied — exactly the state recovery would reproduce.
  /// Returns aggregate stats on success.
  [[nodiscard]] Expected<IngestStats> put_documents(
      const std::vector<std::pair<std::string, prov::Document>>& docs);

  [[nodiscard]] const PropertyGraph& graph() const { return graph_; }

  /// Caps the open-cursor registry: at most `max_open` cursors (LRU
  /// eviction beyond that) and `ttl` of idle life each. Setup-time only.
  void set_cursor_limits(std::size_t max_open, std::chrono::milliseconds ttl);
  /// Reaps expired cursors, then reports the registry state.
  [[nodiscard]] CursorStats cursor_stats();

  /// Monotonic counter bumped by every successful mutation (PUT/DELETE,
  /// direct or routed). Response caches key on it: any hit keyed at the
  /// current version is guaranteed not to predate the latest write.
  [[nodiscard]] std::uint64_t graph_version() const {
    return version_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------ durability

  /// Attaches a durable WAL store at `dir`: recovers any existing state
  /// into this service (which must hold no documents yet), then logs every
  /// subsequent successful mutation *before* acknowledging it, under the
  /// same exclusive lock that applies it. After a crash, attach_wal
  /// on the same dir restores exactly the acknowledged mutation prefix.
  [[nodiscard]] Status attach_wal(const std::string& dir, wal::Options options = {});
  [[nodiscard]] bool wal_attached() const { return wal_ != nullptr; }
  /// Durability counters for /api/v0/health; zeroed when no WAL attached.
  [[nodiscard]] wal::Stats wal_stats() const;
  /// Forces snapshot compaction of the attached WAL (no-op when detached).
  [[nodiscard]] Status wal_compact();

  /// Persists the current document set at `dir` as a WAL-store snapshot.
  /// With a WAL attached and `dir` == its directory this is compaction;
  /// otherwise it replaces whatever store lives at `dir`.
  [[nodiscard]] Status save(const std::string& dir) const;
  /// Restores a service from a WAL store dir (newest snapshot + log tail).
  /// The returned service is detached — use attach_wal() to keep logging.
  [[nodiscard]] static Expected<YProvService> load(const std::string& dir);

 private:
  /// One resumable server-side cursor. Pinned to the graph_version it was
  /// opened at: any write bumps the version, so resuming checks the pin
  /// and turns stale cursors into 410 Gone instead of reading freed state.
  /// (A QueryCursor holds raw pointers into graph_ tables; rebuild_graph()
  /// move-assigns a fresh graph, so a post-write resume would be UB —
  /// the version pin is correctness, not just freshness.)
  struct OpenCursor {
    QueryCursor cursor;
    std::vector<ResultSet::Column> columns;
    std::uint64_t version = 0;    ///< graph_version at open
    std::size_t page_size = 0;
    std::chrono::steady_clock::time_point expires_at{};
    std::uint64_t lru_seq = 0;    ///< bumped on every touch; min = LRU victim
  };

  Response route(const Request& request);  ///< caller holds the lock
  /// POST /api/v0/query with a JSON envelope: runs the first page, maybe
  /// registers a cursor. Caller holds the lock shared.
  Response query_paged(const std::string& body);
  /// POST /api/v0/query/next: resumes a registered cursor or 410s. Caller
  /// holds the lock shared (so graph_version is stable for the page).
  Response query_next(const std::string& body);
  /// Serializes one page out of `cursor` as {"columns","rows","done"[,"cursor"]}.
  [[nodiscard]] std::string page_body(QueryCursor& cursor,
                                      const std::vector<ResultSet::Column>& columns,
                                      std::size_t page_size,
                                      const std::string& token) const;
  /// Drops cursors past their TTL. Caller holds cursor_mutex_.
  void reap_cursors_locked(std::chrono::steady_clock::time_point now);
  /// PUT /api/v0/documents/<name>: parses `body` unlocked, then applies
  /// it through put_document().
  Response put_route(const std::string& name, const std::string& body);
  /// Applies `doc`, whose canonical bytes are `body`. Caller holds the
  /// lock exclusively.
  Status put_document_impl(const std::string& name, const prov::Document& doc,
                           std::string body);
  /// Puts back a document that a failed mutation displaced: `body` into
  /// the map and, re-parsed from it, its nodes into the graph.
  void restore_document(const std::string& name, std::string body);
  Expected<bool> delete_document_impl(const std::string& name);
  /// Parses and re-ingests every stored document, in name order, into a
  /// fresh graph. Caller holds the lock exclusively or owns the service
  /// alone. On a document that does not parse, keeps the old graph and
  /// fails.
  [[nodiscard]] Status rebuild_graph();
  void bump_version() { version_.fetch_add(1, std::memory_order_acq_rel); }

  /// Guards documents_, graph_ and wal_. Not moved with the service.
  mutable std::shared_mutex mutex_;
  std::atomic<std::uint64_t> version_{0};
  /// name → canonical compact PROV-JSON bytes.
  std::map<std::string, std::string> documents_;
  PropertyGraph graph_;
  std::unique_ptr<wal::DurableStore> wal_;

  // Open-cursor registry. Guarded by its own mutex (not mutex_): a resume
  // runs under the shared lock and only needs the registry long enough to
  // check out / check in the cursor entry. Not moved with the service —
  // moves are setup-time operations and cursors point into the old graph
  // storage.
  mutable std::mutex cursor_mutex_;
  std::map<std::string, OpenCursor> cursors_;
  std::size_t cursor_capacity_ = 64;
  std::chrono::milliseconds cursor_ttl_{60000};
  std::uint64_t cursor_seq_ = 0;
  std::uint64_t next_cursor_id_ = 0;
  std::uint64_t cursors_expired_ = 0;
};

}  // namespace provml::graphstore
