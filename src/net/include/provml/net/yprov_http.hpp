// Binds the generic HTTP layer to the yProv REST routes: translates
// HttpRequest → graphstore::Request, keeps request/latency counters split
// by read/write class, and layers a small LRU response cache over the
// service's reader/writer locking. Cache entries are keyed on
// (graph_version, path, body) — GETs and MATCH-query POSTs are
// both pure reads: every successful write bumps the version, so a hit can
// never serve state older than the latest completed write — no explicit
// invalidation needed, stale keys simply age out of the LRU.
//
// The version is also the client-cooperative half of the cache: every
// cacheable 200 carries `ETag: "<graph_version>"`, and a request whose
// `If-None-Match` names the *current* version short-circuits to a bodyless
// 304 before routing, locking, or cache lookup — the graph cannot have
// changed since the tag was minted, so whatever the client holds is still
// exact. Every response body is the bytes the route produced, so each
// key holds exactly one representation.
//
// Adds the one route the in-process facade never needed:
// GET /api/v0/health, reporting liveness, traffic, cache and
// conditional-GET counters, version, event-loop gauges (when a server stats
// provider is attached), and — when the service has a WAL attached —
// durability stats (LSN, segment count, compaction age, fsync latency).
// 405 responses from the routed service carry a real Allow: header
// alongside the JSON body.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "provml/graphstore/service.hpp"
#include "provml/net/http.hpp"
#include "provml/net/server.hpp"

namespace provml::net {

class YProvHttpApp {
 public:
  struct Options {
    /// Maximum cached read responses (GETs + query POSTs); 0 disables
    /// the cache entirely.
    std::size_t cache_capacity = 256;
    /// Ignored: responses are never content-encoded. Kept only so that
    /// existing callers that still set it compile.
    std::size_t compress_min_bytes = 1024;
  };

  YProvHttpApp() = default;
  explicit YProvHttpApp(Options options) : options_(options) {}
  explicit YProvHttpApp(graphstore::YProvService service) : service_(std::move(service)) {}
  YProvHttpApp(graphstore::YProvService service, Options options)
      : options_(options), service_(std::move(service)) {}

  /// Thread-safe: callable concurrently from every server worker. Reads
  /// run under the service's shared lock (or short-circuit on a cache
  /// hit / matching If-None-Match); writes take its exclusive lock.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Direct access for setup/teardown (snapshot load/save). Not
  /// synchronized with handle(); use before start or after stop.
  [[nodiscard]] graphstore::YProvService& service() { return service_; }

  /// Lets /api/v0/health report the serving loop's gauges
  /// (open_connections, epoll_wakeups, connections_shed). Set before the
  /// server starts; the callback must be thread-safe (ServerStats reads
  /// are atomics).
  void set_server_stats_provider(std::function<ServerStats()> provider) {
    server_stats_ = std::move(provider);
  }

  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t status_2xx = 0;
    std::uint64_t status_4xx = 0;
    std::uint64_t status_5xx = 0;
    std::uint64_t latency_us_total = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t reads = 0;              ///< GET/POST-class requests
    std::uint64_t writes = 0;             ///< PUT/DELETE-class requests
    std::uint64_t read_latency_us = 0;
    std::uint64_t write_latency_us = 0;
    std::uint64_t responses_304 = 0;      ///< If-None-Match short-circuits
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct CacheKey {
    std::uint64_t version = 0;
    std::string path;
    std::string body;  ///< empty for GETs; the MATCH text for query POSTs
    bool operator==(const CacheKey& other) const {
      return version == other.version && path == other.path && body == other.body;
    }
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      const std::size_t h = std::hash<std::string>{}(k.path) ^
                            (std::hash<std::string>{}(k.body) << 1);
      return h ^ (k.version * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct CacheEntry {
    CacheKey key;
    int status = 0;
    std::string body;
  };

  /// On a hit, copies the cached status and body into `response`.
  [[nodiscard]] bool cache_lookup(const CacheKey& key, HttpResponse& response);
  void cache_store(CacheKey key, CacheEntry entry);
  [[nodiscard]] HttpResponse health_response(const HttpRequest& request);

  Options options_;
  graphstore::YProvService service_;
  std::function<ServerStats()> server_stats_;
  std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();

  // LRU response cache: list front = most recent; map points into the list.
  std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash> cache_map_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> status_2xx_{0};
  std::atomic<std::uint64_t> status_4xx_{0};
  std::atomic<std::uint64_t> status_5xx_{0};
  std::atomic<std::uint64_t> latency_us_total_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> read_latency_us_{0};
  std::atomic<std::uint64_t> write_latency_us_{0};
  std::atomic<std::uint64_t> responses_304_{0};
};

}  // namespace provml::net
