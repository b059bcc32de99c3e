// Minimal blocking HTTP/1.1 client for driving the yProv service over
// TCP: non-blocking connect with timeout, retry-with-backoff when the
// connection is refused (the server may still be coming up), poll-guarded
// reads, and connection reuse across requests (keep-alive) with one
// transparent reconnect when a pooled connection has gone stale. The
// connection is NOT reused when the server said `Connection: close` (or
// answered HTTP/1.0 without keep-alive) — the server's verdict wins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/json/value.hpp"
#include "provml/net/http.hpp"
#include "provml/net/parser.hpp"

namespace provml::net {

struct ClientConfig {
  int connect_timeout_ms = 2000;
  int io_timeout_ms = 5000;     ///< per poll() while sending/receiving
  int retries = 3;              ///< extra connect attempts on refusal
  int retry_backoff_ms = 50;    ///< initial backoff, doubled per attempt
  ParserLimits limits{};        ///< response size guards
};

/// A parsed http:// URL. `base_path` has no trailing slash ("" for none).
struct Url {
  std::string host;
  std::uint16_t port = 80;
  std::string base_path;
};

/// Parses "http://host[:port][/base]". https is rejected.
[[nodiscard]] Expected<Url> parse_url(const std::string& url);

class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port, ClientConfig config = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One request/response exchange. Reuses the pooled connection when the
  /// previous response allowed keep-alive. `headers` ride along verbatim
  /// (e.g. `If-None-Match` for conditional GETs).
  [[nodiscard]] Expected<HttpResponse> request(const std::string& method,
                                               const std::string& target,
                                               const std::string& body = "",
                                               std::vector<Header> headers = {});

  [[nodiscard]] Expected<HttpResponse> get(const std::string& target,
                                           std::vector<Header> headers = {}) {
    return request("GET", target, "", std::move(headers));
  }
  [[nodiscard]] Expected<HttpResponse> put(const std::string& target,
                                           const std::string& body) {
    return request("PUT", target, body);
  }
  [[nodiscard]] Expected<HttpResponse> post(const std::string& target,
                                            const std::string& body) {
    return request("POST", target, body);
  }
  [[nodiscard]] Expected<HttpResponse> del(const std::string& target) {
    return request("DELETE", target);
  }

 private:
  [[nodiscard]] Expected<int> connect_with_retry();
  [[nodiscard]] Expected<HttpResponse> exchange(int fd, const std::string& wire);
  void close_connection();

  std::string host_;
  std::uint16_t port_;
  ClientConfig config_;
  int fd_ = -1;  ///< pooled keep-alive connection, -1 when closed
};

/// Client half of the service's cursor protocol: iterates a query's
/// result page by page over `POST <base>/api/v0/query` (JSON envelope)
/// and `POST <base>/api/v0/query/next`, so a caller touches one page of
/// rows at a time regardless of result size.
///
///   QueryPager pager(client, "", "MATCH (n) RETURN n", 100);
///   while (!pager.done()) {
///     auto page = pager.next_page();          // {"columns","rows","done",...}
///     if (!page.ok()) { ... 410 = cursor invalidated by a write ... }
///   }
///
/// The server invalidates cursors on any write (410 Gone) and reaps them
/// on TTL/LRU pressure; callers restart the query when that happens.
class QueryPager {
 public:
  QueryPager(HttpClient& client, std::string base_path, std::string query,
             std::size_t page_size);

  /// Fetches the next page. The returned object always carries "columns"
  /// and "rows"; done() turns true when the server reported the last
  /// page. Non-2xx responses (including 410 Gone) come back as errors
  /// naming the status, and end the iteration.
  [[nodiscard]] Expected<json::Value> next_page();

  [[nodiscard]] bool done() const { return done_; }

 private:
  HttpClient& client_;
  std::string base_path_;
  std::string query_;
  std::size_t page_size_;
  std::string cursor_;  ///< empty until the first page arrives
  bool started_ = false;
  bool done_ = false;
};

}  // namespace provml::net
