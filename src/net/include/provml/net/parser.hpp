// Incremental HTTP/1.1 request parser: bytes are fed in as they arrive
// from the socket (in arbitrary split points) and a complete HttpRequest
// pops out once the framing is satisfied. Framing is Content-Length only
// (no chunked transfer coding); requests without a body-framing header are
// complete at the end of the header section, except PUT/POST which get
// 411 Length Required. Enforces header (431) and body (413) size limits
// so a misbehaving peer cannot balloon server memory.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "provml/net/http.hpp"

namespace provml::net {

struct ParserLimits {
  std::size_t max_header_bytes = 16 * 1024;       ///< 431 beyond this
  std::size_t max_body_bytes = 8 * 1024 * 1024;   ///< 413 beyond this
};

class RequestParser {
 public:
  enum class State {
    kHeaders,   ///< accumulating the request line + header section
    kBody,      ///< headers parsed, waiting for Content-Length bytes
    kComplete,  ///< request() is fully populated
    kError,     ///< framing violation; see error_status()/error_message()
  };

  explicit RequestParser(ParserLimits limits = {}) : limits_(limits) {}

  /// Appends raw bytes and advances the state machine as far as possible.
  /// Bytes beyond the current request are buffered for the next one
  /// (HTTP/1.1 pipelining), picked up by reset().
  void feed(std::string_view data);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool complete() const { return state_ == State::kComplete; }
  [[nodiscard]] bool failed() const { return state_ == State::kError; }

  /// The HTTP status a server should answer with when failed(): 400, 411,
  /// 413, 431, or 501 (transfer codings).
  [[nodiscard]] int error_status() const { return error_status_; }
  [[nodiscard]] const std::string& error_message() const { return error_message_; }

  /// The parsed request; valid once complete().
  [[nodiscard]] const HttpRequest& request() const { return request_; }

  /// Moves the completed request out (the serving thread hands it to the
  /// handler without copying the body). The parser stays complete();
  /// reset() starts the next request as usual.
  [[nodiscard]] HttpRequest take_request() {
    HttpRequest out = std::move(request_);
    request_ = HttpRequest{};
    return out;
  }

  /// True when no byte of a new request has arrived yet: the connection
  /// is between requests (idle keep-alive), so a read timeout may reap
  /// it silently instead of answering 408.
  [[nodiscard]] bool idle() const {
    return state_ == State::kHeaders && buffer_.empty();
  }

  /// Discards the completed request and immediately parses any buffered
  /// pipelined bytes (the next request may already be complete()).
  void reset();

 private:
  void advance();
  void fail(int status, std::string message);
  [[nodiscard]] bool parse_header_section(std::string_view section);

  ParserLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;            ///< unconsumed input
  std::size_t header_scan_ = 0;   ///< bytes already scanned for the blank line
  HttpRequest request_;
  std::size_t body_needed_ = 0;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace provml::net
