#include "provml/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>

#include "provml/common/fault_inject.hpp"

namespace provml::net {
namespace {

// epoll_event.data.u64 tags for the server's own fds; connection ids start
// at 16 so they can never collide.
constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kStopTag = 2;

constexpr int kAcceptBackoffMs = 100;  ///< pause after unrecoverable EMFILE

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string json_error(const std::string& message) {
  // Error strings are server-chosen constants: no escaping needed.
  return "{\"error\":\"" + message + "\"}";
}

/// Best-effort final answer on a connection about to be closed. The
/// response is far below any socket buffer, so one non-blocking send
/// either takes it whole or the peer is gone anyway.
void send_final(int fd, int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = json_error(message);
  response.close = true;
  const std::string wire = serialize(response, /*keep_alive=*/false);
  (void)!::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

}  // namespace

HttpServer::HttpServer(ServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  if (config_.threads == 0) config_.threads = 1;
}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_.load()) return Error{"server already running", config_.host};

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Error{std::strerror(errno), "socket"};
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (config_.host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    return Error{"invalid listen address", config_.host};
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    return Error{message, config_.host + ":" + std::to_string(config_.port)};
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    return Error{message, "listen"};
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  if (!set_nonblocking(listen_fd_)) {
    close_fd(listen_fd_);
    return Error{std::strerror(errno), "nonblocking listen socket"};
  }

  if (::pipe(stop_pipe_) != 0) {
    const std::string message = std::strerror(errno);
    close_fd(listen_fd_);
    return Error{message, "pipe"};
  }
  // The stop write end is poked from signal handlers: never let it block.
  for (const int fd : stop_pipe_) (void)set_nonblocking(fd);

  epoll_fd_ = ::epoll_create1(0);
  // The listen fd is one-shot like every connection: the thread that sees
  // it ready accepts until the backlog drains, then re-arms it. The stop
  // pipe stays level-triggered, and its byte is never read, so every
  // serving thread's epoll_wait reports it.
  if (epoll_fd_ < 0 || !update_epoll(listen_fd_, kListenTag, EPOLLIN | EPOLLONESHOT) ||
      !update_epoll(stop_pipe_[0], kStopTag, EPOLLIN)) {
    const std::string message = std::strerror(errno);
    close_fd(epoll_fd_);
    close_fd(listen_fd_);
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    return Error{message, "epoll"};
  }

  // Held in reserve so accept() can still succeed (and answer 503) once
  // the process hits its fd limit; see handle_fd_exhaustion().
  reserve_fd_ = ::open("/dev/null", O_RDONLY);

  // The sweep granularity bounds how late a timeout fires; a quarter of
  // the configured timeout keeps the error small without scanning every
  // connection on every wakeup.
  sweep_ms_ = config_.read_timeout_ms > 0 ? std::clamp(config_.read_timeout_ms / 4, 5, 250)
                                          : 250;
  next_sweep_.store(
      (Clock::now() + std::chrono::milliseconds(sweep_ms_)).time_since_epoch().count());
  stopping_.store(false);
  accept_paused_.store(false);
  running_.store(true);
  threads_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    threads_.emplace_back([this] { serve_loop(); });
  }
  return Status::ok_status();
}

void HttpServer::request_stop() noexcept {
  stopping_.store(true);
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    // Best effort; the pipe staying readable is all that matters.
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
}

void HttpServer::wait() {
  if (!running_.load()) return;
  pollfd pfd{stop_pipe_[0], POLLIN, 0};
  while (!stopping_.load()) {
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0 || (r < 0 && errno != EINTR)) break;
  }
  stop();
}

void HttpServer::stop() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_.load()) return;
  request_stop();
  // Each thread finishes the exchange it owns (its response goes out with
  // Connection: close) before it sees the stop event and exits.
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // No thread is left to own a connection: close the idle and the
  // half-read ones.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  open_connections_.store(0);
  close_fd(reserve_fd_);
  close_fd(epoll_fd_);
  close_fd(listen_fd_);
  close_fd(stop_pipe_[0]);
  close_fd(stop_pipe_[1]);
  running_.store(false);
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.requests_handled = requests_handled_.load();
  s.responses_2xx = responses_2xx_.load();
  s.responses_4xx = responses_4xx_.load();
  s.responses_5xx = responses_5xx_.load();
  s.parse_errors = parse_errors_.load();
  s.read_timeouts = read_timeouts_.load();
  s.latency_us_total = latency_us_total_.load();
  s.open_connections = open_connections_.load();
  s.epoll_wakeups = epoll_wakeups_.load();
  s.connections_shed = connections_shed_.load();
  s.writev_batches = writev_batches_.load();
  return s;
}

bool HttpServer::update_epoll(int fd, std::uint64_t id, std::uint32_t events) const {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0) return true;
  if (errno != ENOENT) return false;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

// ---------------------------------------------------------- serving threads

void HttpServer::serve_loop() {
  for (;;) {
    // Sleep forever only when there is nothing to time out and no
    // accept backoff to lift.
    const bool need_tick = open_connections_.load() > 0 || accept_paused_.load();
    // One event per wakeup: a thread holding a batch would queue the
    // other ready connections behind its current handler.
    epoll_event event{};
    const int n = ::epoll_wait(epoll_fd_, &event, 1, need_tick ? sweep_ms_ : -1);
    ++epoll_wakeups_;
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: shutdown race, bail out
    }
    if (n == 1) {
      if (event.data.u64 == kStopTag) return;  // left readable for the others
      if (event.data.u64 == kListenTag) {
        handle_accept();
      } else {
        serve_connection(event.data.u64);
      }
    }
    // Whichever thread is free when the sweep is due runs it.
    const Clock::time_point now = Clock::now();
    Clock::rep due = next_sweep_.load();
    if (now.time_since_epoch().count() >= due &&
        next_sweep_.compare_exchange_strong(
            due, (now + std::chrono::milliseconds(sweep_ms_)).time_since_epoch().count())) {
      sweep(now);
    }
  }
}

void HttpServer::handle_accept() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_.load()) return;  // leave the listen fd disarmed
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if ((errno == EMFILE || errno == ENFILE) && !handle_fd_exhaustion()) {
        return;  // paused: the sweep re-arms the listen fd after the backoff
      }
      // Drained (EAGAIN), or transient (ECONNABORTED etc.): re-arm and let
      // epoll report whatever is still pending.
      break;
    }
    ++connections_accepted_;
    if (config_.max_connections > 0 && conns_.size() >= config_.max_connections) {
      shed_connection(fd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(config_.limits);
    conn->fd = fd;
    conn->id = id;
    conn->last_activity = Clock::now();
    if (!update_epoll(fd, id, EPOLLIN | EPOLLONESHOT)) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    open_connections_.store(conns_.size());
  }
  (void)update_epoll(listen_fd_, kListenTag, EPOLLIN | EPOLLONESHOT);
}

/// The process is out of fds: accept() fails instantly, so re-arming the
/// listen socket would spin a thread hot. Close the reserve fd to accept
/// exactly one peer and tell it 503 (instead of leaving it in the
/// backlog), then reopen the reserve. If the fd space is still exhausted,
/// leave the listen fd disarmed for a short backoff and return false.
/// Called with mutex_ held.
bool HttpServer::handle_fd_exhaustion() {
  if (reserve_fd_ >= 0) {
    close_fd(reserve_fd_);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) shed_connection(fd);
    reserve_fd_ = ::open("/dev/null", O_RDONLY);
    if (fd >= 0 && reserve_fd_ >= 0) return true;
  }
  accept_resume_at_ = Clock::now() + std::chrono::milliseconds(kAcceptBackoffMs);
  accept_paused_.store(true);
  return false;
}

/// Load shed at accept time: a one-shot 503 with Connection: close.
void HttpServer::shed_connection(int fd) {
  ++connections_shed_;
  send_final(fd, 503, "server at connection capacity");
  ::close(fd);
}

/// Runs on the thread whose epoll_wait returned this connection's one-shot
/// event: that thread owns the connection until release() or close.
void HttpServer::serve_connection(std::uint64_t id) {
  Connection* conn = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;  // swept after its event fired
    conn = it->second.get();
    conn->owned = true;
  }
  // Re-armed for EPOLLOUT after a short write: finish that response first.
  if (conn->write_head.empty() && !read_request(*conn)) return;
  for (;;) {
    if (conn->write_head.empty()) {
      if (!conn->parser.complete() && !conn->parser.failed()) {
        release(*conn, EPOLLIN);
        return;
      }
      prepare_response(*conn);
      if (fault::triggered("net.send")) {
        close_connection(*conn);
        return;
      }
    }
    switch (flush_writes(*conn)) {
      case Flush::kDone:
        break;
      case Flush::kBlocked:
        release(*conn, EPOLLOUT);
        return;
      case Flush::kError:
        close_connection(*conn);
        return;
    }
    if (conn->close_after_write) {
      close_connection(*conn);
      return;
    }
    // Strictly serial per connection, as HTTP requires: a pipelined
    // request already buffered in the parser is served next, here; the
    // socket itself goes back to epoll once the buffer holds no whole one.
    conn->write_head.clear();
    conn->write_body.clear();
    conn->write_off = 0;
    conn->parser.reset();
  }
}

/// Feeds the parser until it holds a complete (or failed) request or the
/// socket is drained. Returns false after closing a connection whose peer
/// hung up or failed.
bool HttpServer::read_request(Connection& conn) {
  char buf[16384];
  while (!conn.parser.complete() && !conn.parser.failed()) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      close_connection(conn);  // peer closed
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // drained
      close_connection(conn);
      return false;
    }
    conn.last_activity = Clock::now();
    conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  return true;
}

/// Turns what the parser holds into the connection's pending response:
/// the handler's answer to a parsed request, or the error status (and a
/// close) for a malformed one.
void HttpServer::prepare_response(Connection& conn) {
  if (conn.parser.failed()) {
    ++parse_errors_;
    HttpResponse error;
    error.status = conn.parser.error_status();
    error.body = json_error(conn.parser.error_message());
    record_response(error.status, 0);
    if (access_logger_) access_logger_("(malformed) " + std::to_string(error.status));
    conn.write_head = serialize_head(error, /*keep_alive=*/false);
    conn.write_body = std::move(error.body);
    conn.close_after_write = true;
    return;
  }
  const HttpRequest request = conn.parser.take_request();
  const auto t0 = Clock::now();
  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception&) {
    response = HttpResponse{};
    response.status = 500;
    response.body = json_error("internal error");
  }
  const auto latency_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
  // A stop requested while the handler ran still gets this response, but
  // with Connection: close.
  const bool keep = request.keep_alive() && !response.close && !stopping_.load();
  conn.write_head = serialize_head(response, keep);
  conn.write_body = std::move(response.body);
  conn.close_after_write = !keep;
  // Record before the response can reach the peer so stats are visible
  // to any observer who has already received it.
  record_response(response.status, latency_us);
  if (access_logger_) {
    access_logger_(request.method + " " + request.target + " " +
                   std::to_string(response.status) + " " +
                   std::to_string(conn.write_head.size() + conn.write_body.size()) + " " +
                   std::to_string(latency_us) + "us");
  }
}

HttpServer::Flush HttpServer::flush_writes(Connection& conn) {
  // Gathered write: whatever remains of the head and the body goes out in
  // one sendmsg (writev with MSG_NOSIGNAL), so a small response — exactly
  // what paged queries produce — costs a single syscall instead of two.
  const std::size_t total = conn.write_head.size() + conn.write_body.size();
  while (conn.write_off < total) {
    iovec iov[2];
    int iovcnt = 0;
    if (conn.write_off < conn.write_head.size()) {
      iov[iovcnt].iov_base =
          const_cast<char*>(conn.write_head.data()) + conn.write_off;
      iov[iovcnt].iov_len = conn.write_head.size() - conn.write_off;
      ++iovcnt;
    }
    const std::size_t body_off = conn.write_off > conn.write_head.size()
                                     ? conn.write_off - conn.write_head.size()
                                     : 0;
    if (body_off < conn.write_body.size()) {
      iov[iovcnt].iov_base = const_cast<char*>(conn.write_body.data()) + body_off;
      iov[iovcnt].iov_len = conn.write_body.size() - body_off;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Flush::kBlocked;
      return Flush::kError;
    }
    if (iovcnt == 2) ++writev_batches_;
    conn.write_off += static_cast<std::size_t>(n);
    conn.last_activity = Clock::now();
  }
  return Flush::kDone;
}

/// Hands the connection back and re-arms its one-shot interest. Both
/// happen under the registry mutex, so the sweep can never close (and
/// accept never reuse) the fd number between the two.
void HttpServer::release(Connection& conn, std::uint32_t events) {
  const std::lock_guard<std::mutex> lock(mutex_);
  conn.owned = false;
  if (!update_epoll(conn.fd, conn.id, events | EPOLLONESHOT)) erase_locked(conn.id);
}

void HttpServer::close_connection(Connection& conn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  erase_locked(conn.id);
}

void HttpServer::erase_locked(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);  // closing also removes the fd from epoll
  conns_.erase(it);
  open_connections_.store(conns_.size());
}

/// Lifts an expired accept backoff and reaps connections idle past the
/// read timeout. Owned connections are skipped: their thread is reading,
/// handling or writing right now.
void HttpServer::sweep(Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (accept_paused_.load() && now >= accept_resume_at_ && !stopping_.load()) {
    accept_paused_.store(false);
    (void)update_epoll(listen_fd_, kListenTag, EPOLLIN | EPOLLONESHOT);
  }
  if (config_.read_timeout_ms <= 0) return;
  const auto timeout = std::chrono::milliseconds(config_.read_timeout_ms);
  for (auto it = conns_.begin(); it != conns_.end();) {
    const Connection& conn = *it->second;
    if (conn.owned || now - conn.last_activity <= timeout) {
      ++it;
      continue;
    }
    ++read_timeouts_;
    // A half-received request timed out: tell the peer before closing.
    // Idle keep-alive peers (and stuck writers) are reaped silently.
    if (conn.write_head.empty() && !conn.parser.idle()) {
      send_final(conn.fd, 408, "request read timed out");
    }
    ::close(conn.fd);
    it = conns_.erase(it);
  }
  open_connections_.store(conns_.size());
}

void HttpServer::record_response(int status, std::uint64_t latency_us) {
  ++requests_handled_;
  latency_us_total_ += latency_us;
  if (status >= 500) {
    ++responses_5xx_;
  } else if (status >= 400) {
    ++responses_4xx_;
  } else {
    ++responses_2xx_;
  }
}

}  // namespace provml::net
