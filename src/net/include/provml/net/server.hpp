// From-scratch POSIX-socket HTTP/1.1 server built on one epoll set served
// by `threads` identical threads (leader/follower): each thread takes one
// ready event per epoll_wait, and connection fds are armed EPOLLONESHOT,
// so the thread that sees a connection ready owns it until it re-arms it.
// That thread reads and parses the request, runs the handler, writes the
// response (one gathered sendmsg), serves any pipelined follow-up already
// buffered the same way, then re-arms EPOLLIN (EPOLLOUT after a short
// write) or closes. An idle keep-alive client costs one fd, not one
// thread, and no request crosses threads on its way from socket to
// handler to socket.
// Connections are addressed by id, never by fd, and one registry mutex
// covers accept, the connection cap, taking and returning ownership,
// re-arming and the timeout sweep, which any thread runs when it is due.
// Overload is shed at accept time: beyond `max_connections` the peer gets
// 503 + Connection: close, and fd exhaustion (EMFILE/ENFILE) is absorbed
// by a reserve fd plus a short accept backoff. Shutdown is graceful
// through a level-triggered self-pipe that every thread sees:
// request_stop() is async-signal-safe (a single write()), each thread
// finishes the exchange it owns, and stop() joins them all and releases
// the port.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/net/http.hpp"
#include "provml/net/parser.hpp"

namespace provml::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 → ephemeral; see HttpServer::port()
  unsigned threads = 4;          ///< serving threads (min 1)
  int read_timeout_ms = 5000;    ///< per-connection idle read timeout
  int listen_backlog = 256;
  std::size_t max_connections = 0;  ///< open-connection cap; 0 = unlimited.
                                    ///< Beyond it, accepts are shed with
                                    ///< 503 + Connection: close.
  ParserLimits limits{};
};

/// Monotonic counters (plus the open-connection gauge), readable while
/// the server runs.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_handled = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t parse_errors = 0;     ///< malformed/oversized requests
  std::uint64_t read_timeouts = 0;
  std::uint64_t latency_us_total = 0; ///< handler time, summed
  std::uint64_t open_connections = 0; ///< gauge: connections registered
  std::uint64_t epoll_wakeups = 0;    ///< epoll_wait returns, summed over
                                      ///< all serving threads
  std::uint64_t connections_shed = 0; ///< 503'd at accept (cap or EMFILE)
  std::uint64_t writev_batches = 0;   ///< sendmsg calls that coalesced
                                      ///< header + body into one syscall

  [[nodiscard]] double mean_latency_us() const {
    return requests_handled == 0
               ? 0.0
               : static_cast<double>(latency_us_total) / static_cast<double>(requests_handled);
  }
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Called once per completed exchange with a pre-formatted line:
  /// `<method> <target> <status> <response-bytes> <micros>us`.
  /// Invoked from the serving threads; the callback must be thread-safe.
  using AccessLogger = std::function<void(const std::string& line)>;

  HttpServer(ServerConfig config, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the serving threads.
  [[nodiscard]] Status start();

  /// Graceful shutdown: stops accepting, lets in-flight exchanges
  /// finish, joins all threads, closes every connection and the
  /// listening socket. Idempotent; also run by the destructor.
  void stop();

  /// Async-signal-safe stop request (one write to the self-pipe); pair
  /// with wait() from the serving thread.
  void request_stop() noexcept;

  /// Blocks until a stop is requested, then performs stop().
  void wait();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Actual bound port (useful when config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] ServerStats stats() const;

  /// Must be set before start().
  void set_access_logger(AccessLogger logger) { access_logger_ = std::move(logger); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-connection state. At most one serving thread owns a connection
  /// at a time: the one whose epoll_wait returned its one-shot event.
  /// Ownership is taken and handed back under `mutex_`, which orders one
  /// owner's writes before the next owner's (or the sweep's) reads.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    bool owned = false;  ///< a serving thread holds it; the sweep skips it
    RequestParser parser;
    // Response bytes kept as two buffers (status line + headers, body) so
    // the flush can gather both into a single writev-style syscall. A
    // non-empty head means a response is still being written.
    std::string write_head;
    std::string write_body;
    std::size_t write_off = 0;  ///< progress over the concatenation [head|body]
    bool close_after_write = false;
    Clock::time_point last_activity{};
    explicit Connection(ParserLimits limits) : parser(limits) {}
  };

  enum class Flush { kDone, kBlocked, kError };

  void serve_loop();
  void handle_accept();
  [[nodiscard]] bool handle_fd_exhaustion();
  void shed_connection(int fd);
  void serve_connection(std::uint64_t id);
  [[nodiscard]] bool read_request(Connection& conn);
  void prepare_response(Connection& conn);
  [[nodiscard]] Flush flush_writes(Connection& conn);
  void release(Connection& conn, std::uint32_t events);
  void close_connection(Connection& conn);
  void erase_locked(std::uint64_t id);
  void sweep(Clock::time_point now);
  bool update_epoll(int fd, std::uint64_t id, std::uint32_t events) const;
  void record_response(int status, std::uint64_t latency_us);

  ServerConfig config_;
  Handler handler_;
  AccessLogger access_logger_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int reserve_fd_ = -1;          ///< held open so EMFILE can still accept+503
  int stop_pipe_[2] = {-1, -1};  ///< [read, write]; write end poked to stop
  std::uint16_t port_ = 0;
  int sweep_ms_ = 250;           ///< timeout-sweep period
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> threads_;
  std::mutex lifecycle_mutex_;  ///< serializes start()/stop()
  std::atomic<Clock::rep> next_sweep_{0};  ///< claimed by compare-exchange

  // Connection registry, guarded by mutex_ (accept_paused_ is written
  // under it and also read unlocked, to pick the epoll_wait timeout).
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 16;  ///< ids below 16 tag the server's own fds
  Clock::time_point accept_resume_at_{};
  std::atomic<bool> accept_paused_{false};

  // Stats counters (atomics: touched by every serving thread).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_handled_{0};
  std::atomic<std::uint64_t> responses_2xx_{0};
  std::atomic<std::uint64_t> responses_4xx_{0};
  std::atomic<std::uint64_t> responses_5xx_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> latency_us_total_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> epoll_wakeups_{0};
  std::atomic<std::uint64_t> connections_shed_{0};
  std::atomic<std::uint64_t> writev_batches_{0};
};

}  // namespace provml::net
