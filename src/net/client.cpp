#include "provml/net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "provml/common/fault_inject.hpp"
#include "provml/common/strings.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"

namespace provml::net {
namespace {

bool set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int wanted = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, wanted) == 0;
}

/// Blocking send of the whole buffer; returns false on a broken pipe.
bool send_all(int fd, std::string_view data) {
  if (fault::triggered("net.send")) {
    errno = ECONNRESET;  // present the injected fault as a peer reset
    return false;
  }
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::size_t find_header_end(std::string_view buf) {
  const std::size_t crlf = buf.find("\r\n\r\n");
  if (crlf != std::string_view::npos) return crlf + 4;
  const std::size_t lf = buf.find("\n\n");
  return lf == std::string_view::npos ? std::string_view::npos : lf + 2;
}

std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Parses the status line + headers of `section` into `response`;
/// `version` receives the protocol token (e.g. "HTTP/1.0").
bool parse_response_head(std::string_view section, HttpResponse& response,
                         std::string& version) {
  std::size_t line_end = section.find('\n');
  const std::string_view status_line =
      strip_cr(section.substr(0, line_end == std::string_view::npos ? section.size()
                                                                    : line_end));
  const std::vector<std::string> parts = strings::split(status_line, ' ');
  if (parts.size() < 2 || !strings::starts_with(parts[0], "HTTP/")) return false;
  version = parts[0];
  const auto status = strings::to_int64(parts[1]);
  if (!status || *status < 100 || *status > 599) return false;
  response.status = static_cast<int>(*status);
  while (line_end != std::string_view::npos) {
    const std::size_t begin = line_end + 1;
    line_end = section.find('\n', begin);
    const std::string_view line = strip_cr(
        section.substr(begin, line_end == std::string_view::npos ? section.size() - begin
                                                                 : line_end - begin));
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    response.headers.push_back(Header{std::string(strings::trim(line.substr(0, colon))),
                                      std::string(strings::trim(line.substr(colon + 1)))});
  }
  return true;
}

}  // namespace

Expected<Url> parse_url(const std::string& url) {
  if (strings::starts_with(url, "https://")) {
    return Error{"https is not supported; use http://", url};
  }
  if (!strings::starts_with(url, "http://")) {
    return Error{"URL must start with http://", url};
  }
  std::string_view rest = std::string_view(url).substr(7);
  Url parsed;
  const std::size_t slash = rest.find('/');
  std::string_view hostport = rest.substr(0, slash);
  if (slash != std::string_view::npos) {
    std::string_view path = rest.substr(slash);
    while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
    if (path != "/") parsed.base_path = std::string(path);
  }
  const std::size_t colon = hostport.find(':');
  if (colon != std::string_view::npos) {
    const auto port = strings::to_int64(hostport.substr(colon + 1));
    if (!port || *port < 1 || *port > 65535) return Error{"invalid port", url};
    parsed.port = static_cast<std::uint16_t>(*port);
    hostport = hostport.substr(0, colon);
  }
  if (hostport.empty()) return Error{"missing host", url};
  parsed.host = std::string(hostport);
  return parsed;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, ClientConfig config)
    : host_(std::move(host)), port_(port), config_(config) {}

HttpClient::~HttpClient() { close_connection(); }

void HttpClient::close_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Expected<int> HttpClient::connect_with_retry() {
  int backoff_ms = config_.retry_backoff_ms;
  const int attempts = config_.retries + 1;
  Error last{"connect failed", host_ + ":" + std::to_string(port_)};
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Error{std::strerror(errno), "socket"};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Error{"invalid IPv4 address", host_};
    }
    (void)set_blocking(fd, false);
    int error = 0;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      // Connected immediately (loopback fast path).
    } else if (errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, config_.connect_timeout_ms);
      if (r <= 0) {
        ::close(fd);
        last = Error{"connect timed out", host_ + ":" + std::to_string(port_)};
        continue;  // a slow-to-start server may accept on retry
      }
      socklen_t len = sizeof error;
      (void)::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    } else {
      error = errno;
    }
    if (error != 0) {
      ::close(fd);
      last = Error{std::strerror(error), host_ + ":" + std::to_string(port_)};
      if (error == ECONNREFUSED) continue;  // retry with backoff
      return last;
    }
    (void)set_blocking(fd, true);
    return fd;
  }
  return last;
}

Expected<HttpResponse> HttpClient::exchange(int fd, const std::string& wire) {
  if (!send_all(fd, wire)) return Error{"send failed: " + std::string(std::strerror(errno)), host_};

  std::string buffer;
  char chunk[8192];
  std::size_t header_end = std::string_view::npos;
  HttpResponse response;
  std::string version;
  std::size_t body_needed = 0;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, config_.io_timeout_ms);
    if (r == 0) return Error{"response timed out", host_ + ":" + std::to_string(port_)};
    if (r < 0) {
      if (errno == EINTR) continue;
      return Error{std::strerror(errno), "poll"};
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return Error{"connection closed mid-response", host_};
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error{std::strerror(errno), "recv"};
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (header_end == std::string_view::npos) {
      header_end = find_header_end(buffer);
      if (header_end == std::string_view::npos) {
        if (buffer.size() > config_.limits.max_header_bytes) {
          return Error{"response header section too large", host_};
        }
        continue;
      }
      if (!parse_response_head(std::string_view(buffer).substr(0, header_end), response,
                               version)) {
        return Error{"malformed response head", host_};
      }
      const std::string* content_length = response.header("Content-Length");
      if (content_length != nullptr) {
        const auto length = strings::to_int64(*content_length);
        if (!length || *length < 0) return Error{"invalid response Content-Length", host_};
        if (static_cast<std::size_t>(*length) > config_.limits.max_body_bytes) {
          return Error{"response body too large", host_};
        }
        body_needed = static_cast<std::size_t>(*length);
      }
      const std::string* type = response.header("Content-Type");
      if (type != nullptr) response.content_type = *type;
    }
    if (header_end != std::string_view::npos && buffer.size() >= header_end + body_needed) {
      response.body = buffer.substr(header_end, body_needed);
      // The server's connection verdict wins over the client's wish to
      // reuse: an explicit close, or an HTTP/1.0 peer that did not opt
      // into keep-alive, both mean this socket must not carry another
      // request.
      const std::string* connection = response.header("Connection");
      if (connection != nullptr) {
        response.close = iequals(*connection, "close");
      } else {
        response.close = version == "HTTP/1.0";
      }
      return response;
    }
  }
}

Expected<HttpResponse> HttpClient::request(const std::string& method,
                                           const std::string& target,
                                           const std::string& body,
                                           std::vector<Header> headers) {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  req.headers = std::move(headers);
  const std::string wire =
      serialize(req, host_ + ":" + std::to_string(port_), /*keep_alive=*/true);

  const bool reused = fd_ >= 0;
  if (fd_ < 0) {
    Expected<int> fd = connect_with_retry();
    if (!fd.ok()) return fd.error();
    fd_ = fd.value();
  }
  Expected<HttpResponse> result = exchange(fd_, wire);
  if (!result.ok() && reused) {
    // The pooled connection went stale (server timed it out); reconnect
    // once and replay.
    close_connection();
    Expected<int> fd = connect_with_retry();
    if (!fd.ok()) return fd.error();
    fd_ = fd.value();
    result = exchange(fd_, wire);
  }
  if (!result.ok() || result.value().close) close_connection();
  return result;
}

// ------------------------------------------------------------- QueryPager

QueryPager::QueryPager(HttpClient& client, std::string base_path, std::string query,
                       std::size_t page_size)
    : client_(client),
      base_path_(std::move(base_path)),
      query_(std::move(query)),
      page_size_(page_size) {}

Expected<json::Value> QueryPager::next_page() {
  if (done_) return Error{"query pager exhausted", query_};

  std::string body;
  std::string target;
  if (!started_) {
    json::Object envelope;
    envelope.set("query", query_);
    envelope.set("page_size", static_cast<std::int64_t>(page_size_));
    body = json::write(json::Value(std::move(envelope)));
    target = base_path_ + "/api/v0/query";
  } else {
    json::Object envelope;
    envelope.set("cursor", cursor_);
    body = json::write(json::Value(std::move(envelope)));
    target = base_path_ + "/api/v0/query/next";
  }

  Expected<HttpResponse> response = client_.post(target, body);
  if (!response.ok()) return response.error();
  if (response.value().status != 200) {
    done_ = true;
    return Error{"query page failed: HTTP " + std::to_string(response.value().status) +
                     " " + response.value().body,
                 target};
  }
  Expected<json::Value> page = json::parse(response.value().body);
  if (!page.ok()) return page.error();

  started_ = true;
  const json::Value* page_done = page.value().find("done");
  const json::Value* token = page.value().find("cursor");
  if (page_done != nullptr && page_done->is_bool() && !page_done->as_bool() &&
      token != nullptr && token->is_string()) {
    cursor_ = token->as_string();
  } else {
    done_ = true;
  }
  return page;
}

}  // namespace provml::net
