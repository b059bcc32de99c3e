#include "provml/net/yprov_http.hpp"

#include "provml/common/strings.hpp"
#include "provml/json/write.hpp"

namespace provml::net {
namespace {

/// The quoted entity tag for a graph version: `"42"`.
std::string etag_for(std::uint64_t version) {
  std::string tag;
  tag.reserve(24);
  tag.push_back('"');
  tag += std::to_string(version);
  tag.push_back('"');
  return tag;
}

/// True when an If-None-Match header names `version` (or is `*`).
/// Accepts a comma-separated list and weak tags (`W/"v"`): the weakness
/// distinction is moot here — our tags are exact byte-level versions.
bool if_none_match_hits(std::string_view header, std::uint64_t version) {
  const std::string want = std::to_string(version);
  std::size_t pos = 0;
  while (pos <= header.size()) {
    const std::size_t comma = header.find(',', pos);
    std::string_view tag = strings::trim(
        header.substr(pos, comma == std::string_view::npos ? header.size() - pos
                                                           : comma - pos));
    if (tag == "*") return true;
    if (strings::starts_with(tag, "W/")) tag.remove_prefix(2);
    if (tag.size() >= 2 && tag.front() == '"' && tag.back() == '"') {
      tag = tag.substr(1, tag.size() - 2);
    }
    if (tag == want) return true;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

YProvHttpApp::Counters YProvHttpApp::counters() const {
  Counters c;
  c.requests = requests_.load();
  c.status_2xx = status_2xx_.load();
  c.status_4xx = status_4xx_.load();
  c.status_5xx = status_5xx_.load();
  c.latency_us_total = latency_us_total_.load();
  c.cache_hits = cache_hits_.load();
  c.cache_misses = cache_misses_.load();
  c.reads = reads_.load();
  c.writes = writes_.load();
  c.read_latency_us = read_latency_us_.load();
  c.write_latency_us = write_latency_us_.load();
  c.responses_304 = responses_304_.load();
  return c;
}

bool YProvHttpApp::cache_lookup(const CacheKey& key, HttpResponse& response) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_map_.find(key);
  if (it == cache_map_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  response.status = it->second->status;
  response.body = it->second->body;
  return true;
}

void YProvHttpApp::cache_store(CacheKey key, CacheEntry entry) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_map_.count(key) != 0) return;  // another worker raced us to it
  lru_.push_front(std::move(entry));
  lru_.front().key = key;  // eviction erases the map entry by this key
  cache_map_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > options_.cache_capacity) {
    cache_map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

HttpResponse YProvHttpApp::health_response(const HttpRequest& request) {
  HttpResponse response;
  if (request.method != "GET") {
    response.status = 405;
    response.headers.push_back({"Allow", "GET"});
    response.body = "{\"error\":\"method not allowed\",\"allow\":\"GET\"}";
    return response;
  }
  const Counters c = counters();
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - started_);
  json::Object body;
  body.set("status", "ok");
  body.set("uptime_s", static_cast<std::int64_t>(uptime.count()));
  body.set("documents", service_.document_count());
  body.set("graph_version", service_.graph_version());
  // Streaming cursors: how many are resumable right now, and how many
  // have ever been reaped (TTL), evicted (LRU), or invalidated by writes.
  {
    const graphstore::CursorStats cursors = service_.cursor_stats();
    body.set("cursors_open", cursors.open);
    body.set("cursors_expired", cursors.expired);
  }
  body.set("requests", c.requests);
  body.set("responses_2xx", c.status_2xx);
  body.set("responses_4xx", c.status_4xx);
  body.set("responses_5xx", c.status_5xx);
  body.set("cache_hits", c.cache_hits);
  body.set("cache_misses", c.cache_misses);
  // Client-cooperative caching: conditional GETs answered bodylessly.
  body.set("responses_304", c.responses_304);
  const auto mean_ms = [](std::uint64_t total_us, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total_us) / (1000.0 * static_cast<double>(n));
  };
  body.set("mean_latency_ms", mean_ms(c.latency_us_total, c.requests));
  body.set("mean_read_latency_ms", mean_ms(c.read_latency_us, c.reads));
  body.set("mean_write_latency_ms", mean_ms(c.write_latency_us, c.writes));
  // Event loop: connection gauge and loop activity, when a server is
  // attached (absent under the in-process facade).
  if (server_stats_) {
    const ServerStats s = server_stats_();
    body.set("open_connections", s.open_connections);
    body.set("epoll_wakeups", s.epoll_wakeups);
    body.set("connections_shed", s.connections_shed);
    body.set("writev_batches", s.writev_batches);
  }
  // Durability: present (nested) only when a WAL is attached.
  body.set("wal_enabled", service_.wal_attached());
  if (service_.wal_attached()) {
    const wal::Stats w = service_.wal_stats();
    json::Object wal_body;
    wal_body.set("last_lsn", w.last_lsn);
    wal_body.set("snapshot_lsn", w.snapshot_lsn);
    wal_body.set("segments", w.segment_count);
    wal_body.set("records_since_compaction", w.records_since_compaction);
    wal_body.set("compactions", w.compactions);
    wal_body.set("seconds_since_compaction", w.seconds_since_compaction);
    wal_body.set("fsyncs", w.fsyncs);
    wal_body.set("appends", w.appends);
    wal_body.set("mean_fsync_ms", mean_ms(w.fsync_us_total, w.fsyncs));
    body.set("wal", std::move(wal_body));
  }
  response.body = json::write(json::Value(std::move(body)));
  return response;
}

HttpResponse YProvHttpApp::handle(const HttpRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  HttpResponse response;

  // Strip any query string: the yProv routes are path-addressed.
  std::string path = request.target;
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.erase(query);

  const bool is_write = request.method == "PUT" || request.method == "DELETE";
  bool cache_hit = false;
  bool not_modified = false;
  bool no_store = false;

  if (path == "/api/v0/health") {
    response = health_response(request);
  } else {
    // GETs and MATCH-query/explain POSTs are cacheable: all are pure
    // functions of (path, body, graph state), and the version in the key
    // pins the state. The version is read *before* the route executes, so
    // a result can only ever be stored under a key as old as or older
    // than the state it reflects — a later reader at the current version
    // never sees a pre-write body.
    // A JSON-envelope body on /api/v0/query opens a server-side cursor and
    // /api/v0/query/next advances one — both are stateful (the response
    // embeds a resume token and moves the cursor), so neither may be
    // cached, stored, or answered 304 from the version tag.
    const bool paged_query =
        request.method == "POST" && path == "/api/v0/query" &&
        strings::starts_with(strings::trim(request.body), "{");
    const bool is_query =
        !paged_query && request.method == "POST" &&
        (path == "/api/v0/query" || path == "/api/v0/explain");
    const bool read_route = request.method == "GET" || is_query;
    const std::uint64_t version = read_route ? service_.graph_version() : 0;

    // Conditional GET: the ETag *is* the graph version, so a matching
    // If-None-Match at the current version proves the representation the
    // client holds is still byte-exact — answer 304 without routing,
    // locking, or even a cache probe. A stale tag (version moved on)
    // falls through to a full response carrying the fresh tag.
    const std::string* if_none_match =
        read_route ? request.header("If-None-Match") : nullptr;
    if (if_none_match != nullptr && if_none_match_hits(*if_none_match, version)) {
      response.status = 304;
      response.content_type.clear();  // 304 carries no representation
      response.headers.push_back({"ETag", etag_for(version)});
      ++responses_304_;
      not_modified = true;
    }

    const bool cacheable = read_route && options_.cache_capacity > 0;
    CacheKey key;
    if (!not_modified && cacheable) {
      key = CacheKey{version, path, is_query ? request.body : std::string()};
      cache_hit = cache_lookup(key, response);
      if (cache_hit) {
        ++cache_hits_;
      } else {
        ++cache_misses_;
      }
    }
    if (!not_modified && !cache_hit) {
      graphstore::Request inner;
      inner.method = request.method;
      inner.path = std::move(path);
      inner.body = request.body;
      const graphstore::Response routed = service_.handle(inner);
      no_store = routed.no_store;
      response.status = routed.status;
      response.body = routed.body;
      if (routed.status == 405 && !routed.allow.empty()) {
        response.headers.push_back({"Allow", routed.allow});
      }
      if (cacheable && response.status == 200 && !no_store) {
        cache_store(std::move(key), CacheEntry{{}, response.status, response.body});
      }
    }
    if (!not_modified && response.status == 200 && read_route && !no_store) {
      // Every cacheable 200 carries the tag that minted it; the cache key
      // pins `version`, so a hit's tag is identical by construction.
      response.headers.push_back({"ETag", etag_for(version)});
    }
  }

  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++requests_;
  latency_us_total_ += elapsed_us;
  if (is_write) {
    ++writes_;
    write_latency_us_ += elapsed_us;
  } else {
    ++reads_;
    read_latency_us_ += elapsed_us;
  }
  if (response.status >= 500) {
    ++status_5xx_;
  } else if (response.status >= 400) {
    ++status_4xx_;
  } else {
    ++status_2xx_;
  }
  return response;
}

}  // namespace provml::net
