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
// Concurrency — striped locking over the sharded graph. The service owns
// one `shared_mutex` stripe per graph shard; a document's name hashes to
// its home shard (PropertyGraph::shard_for_scope), and ingest places the
// document's whole subgraph there, so:
//   · a PUT/DELETE locks exactly ONE stripe exclusively — writers to
//     different shards never contend;
//   · reads (GET routes, POST /api/v0/query, list/count) lock EVERY
//     stripe shared, acquired in ascending shard order.
// Deadlock freedom: writers hold at most one stripe and block acquiring
// none, and all multi-stripe acquirers (readers, bulk ingest, rebuild)
// take stripes in the same canonical ascending order, so the waits-for
// graph cannot contain a cycle. Every successful mutation bumps one
// monotonic graph version (a single atomic, independent of sharding),
// which HTTP front-ends use as a response cache key. The reference
// accessor graph() bypasses the locks and is for single-threaded
// embedders or setup/teardown.
//
// Storage: each document is held once, as its canonical compact PROV-JSON
// bytes (`to_prov_json_string(doc, false)`) beside its subgraph. A PUT
// parses, validates and serializes its body before taking the stripe;
// under the stripe it only ingests, logs those same bytes and stores
// them. GET and save() hand the bytes out verbatim; get_document() and
// the rollback paths re-parse them on demand.
//
// Bulk ingest (put_documents) holds all stripes exclusively, pre-interns
// the PROV vocabulary serially, then fans per-shard document batches out
// across the shared ThreadPool — distinct shards touch disjoint graph
// tables, so the batches run without further synchronization.
//
// Durability: attach_wal(dir) puts a write-ahead log under the service —
// every successful PUT/DELETE appends a logical record (and fsyncs, per
// policy) before the call returns, and recovery replays snapshot + log
// tail, so acknowledged writes survive kill -9. Concurrent appends from
// different stripes group-commit into shared fsyncs (see
// provml/wal/wal.hpp); per-document ordering is preserved because a
// document's mutations serialize on its stripe.
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

/// Per-shard observability snapshot for /api/v0/health: how balanced the
/// data is and how much write traffic each stripe has absorbed.
struct ShardStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t documents = 0;
  std::uint64_t writer_acquisitions = 0;  ///< exclusive locks taken on this stripe
};

class YProvService {
 public:
  /// `shards` is rounded up to a power of two (see PropertyGraph). One
  /// shard — the default — degenerates to a single global lock, matching
  /// the pre-sharding service exactly.
  explicit YProvService(std::size_t shards = 1);
  // Movable so load() and snapshot swaps work; moves are setup-time
  // operations on unshared instances.
  YProvService(YProvService&& other) noexcept;
  YProvService& operator=(YProvService&& other) noexcept;

  /// Dispatches a request to the matching route. Thread-safe: read-only
  /// methods run under shared stripe locks, PUT/DELETE under the target
  /// document's exclusive stripe lock.
  [[nodiscard]] Response handle(const Request& request);

  // Direct (non-HTTP) API used by the CLI and embedders. All of it locks
  // internally.
  [[nodiscard]] Status put_document(const std::string& name, const prov::Document& doc);
  /// The stored document, parsed from its bytes; nullopt when absent.
  [[nodiscard]] std::optional<prov::Document> get_document(const std::string& name) const;
  [[nodiscard]] bool delete_document(const std::string& name);
  [[nodiscard]] std::vector<std::string> list_documents() const;
  [[nodiscard]] std::size_t document_count() const;

  /// Bulk PROV ingest, parallelized per shard across the shared
  /// ThreadPool. Holds every stripe exclusively for the duration; within a
  /// shard documents apply in input order, so results are deterministic.
  /// On an ingest error the whole batch is rolled back; on a WAL error the
  /// already-logged prefix (in input order) stays applied — exactly the
  /// state recovery would reproduce. Returns aggregate stats on success.
  [[nodiscard]] Expected<IngestStats> put_documents(
      const std::vector<std::pair<std::string, prov::Document>>& docs);

  [[nodiscard]] const PropertyGraph& graph() const { return graph_; }
  [[nodiscard]] std::size_t shard_count() const { return stripes_.size(); }
  /// Consistent per-shard snapshot (all stripes held shared).
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

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
  /// same exclusive stripe lock that applies it. After a crash, attach_wal
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
  /// Restores a service from a WAL store dir (newest snapshot + log tail);
  /// falls back to the legacy index.json layout for pre-WAL stores. The
  /// returned service is detached — use attach_wal() to keep logging.
  [[nodiscard]] static Expected<YProvService> load(const std::string& dir);
  /// Whether `dir` holds a loadable store in either layout.
  [[nodiscard]] static bool store_exists(const std::string& dir);

 private:
  /// One lock stripe. Guards the same-index graph shard and document map.
  /// Heap-allocated (mutexes don't move) so the service stays movable.
  struct Stripe {
    mutable std::shared_mutex mutex;
    std::atomic<std::uint64_t> writer_acquisitions{0};
  };

  [[nodiscard]] std::size_t shard_for(const std::string& name) const {
    return graph_.shard_for_scope(name);
  }
  /// All stripes, shared, ascending — the canonical reader acquisition.
  [[nodiscard]] std::vector<std::shared_lock<std::shared_mutex>> lock_all_shared() const;
  /// All stripes, exclusive, ascending (bulk ingest / hydration).
  [[nodiscard]] std::vector<std::unique_lock<std::shared_mutex>> lock_all_exclusive();

  [[nodiscard]] std::size_t document_count_unlocked() const;

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

  Response route(const Request& request);  ///< caller holds the needed locks
  /// POST /api/v0/query with a JSON envelope: runs the first page, maybe
  /// registers a cursor. Caller holds all stripes shared.
  Response query_paged(const std::string& body);
  /// POST /api/v0/query/next: resumes a registered cursor or 410s. Caller
  /// holds all stripes shared (so graph_version is stable for the page).
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
  /// document's stripe exclusively.
  Status put_document_impl(const std::string& name, const prov::Document& doc,
                           std::string body);
  /// Puts back a document that a failed mutation displaced: `body` into
  /// the map and, re-parsed from it, its nodes into the graph.
  void restore_document(const std::string& name, std::string body);
  Expected<bool> delete_document_impl(const std::string& name);
  /// Parses and re-ingests every stored document into a fresh graph, one
  /// ThreadPool task per shard. Caller holds every stripe exclusively. On
  /// a document that does not parse, keeps the old graph and fails.
  [[nodiscard]] Status rebuild_graph();
  void bump_version() { version_.fetch_add(1, std::memory_order_acq_rel); }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> version_{0};
  /// Per shard: name → canonical compact PROV-JSON bytes.
  std::vector<std::map<std::string, std::string>> documents_;
  PropertyGraph graph_;
  std::unique_ptr<wal::DurableStore> wal_;

  // Open-cursor registry. Guarded by its own mutex (not the stripes): a
  // resume runs under the shared stripe locks and only needs the registry
  // long enough to check out / check in the cursor entry. Not moved with
  // the service — moves are setup-time operations and cursors point into
  // the old graph storage.
  mutable std::mutex cursor_mutex_;
  std::map<std::string, OpenCursor> cursors_;
  std::size_t cursor_capacity_ = 64;
  std::chrono::milliseconds cursor_ttl_{60000};
  std::uint64_t cursor_seq_ = 0;
  std::uint64_t next_cursor_id_ = 0;
  std::uint64_t cursors_expired_ = 0;
};

}  // namespace provml::graphstore
