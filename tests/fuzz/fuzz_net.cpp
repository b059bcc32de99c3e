// Fuzz driver: HTTP/1.1 request parser under arbitrary packet splits,
// pipelining, and byte-level corruption.
//
// Properties checked per iteration:
//   1. A well-formed request fed in random fragments parses completely and
//      reproduces the method, target, headers, and body exactly.
//   2. Two pipelined requests on one connection both parse after reset().
//   3. A mutated wire image never crashes the parser; it lands in a
//      definite state (complete, error, or waiting for more bytes), and a
//      truncated image never falsely completes with a corrupted body.
//   4. Fed one byte at a time (the epoll loop's worst-case recv pattern),
//      the parser completes at exactly the byte that finishes the frame —
//      never earlier (no speculation) and never later (no resume-state
//      loss across feed boundaries).
#include <string>

#include "provml/net/parser.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/harness.hpp"
#include "provml/testkit/mutate.hpp"

namespace {

using namespace provml;

/// Feeds `wire` to `parser` in random chunks (including empty ones).
void feed_in_splits(testkit::Rng& rng, net::RequestParser& parser, std::string_view wire) {
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t len = rng.below(wire.size() - offset + 2);  // may be 0
    parser.feed(wire.substr(offset, len));
    offset += len;
  }
}

void check_matches(const net::HttpRequest& got, const net::HttpRequest& want) {
  FUZZ_CHECK(got.method == want.method, "method mismatch: " + got.method);
  FUZZ_CHECK(got.target == want.target, "target mismatch: " + got.target);
  FUZZ_CHECK(got.body == want.body, "body mismatch");
  for (const net::Header& h : want.headers) {
    const std::string* value = got.header(h.name);
    FUZZ_CHECK(value != nullptr, "header lost in transit: " + h.name);
    FUZZ_CHECK(*value == h.value, "header value mismatch for " + h.name);
  }
}

void iteration(testkit::Rng& rng) {
  const net::HttpRequest request = testkit::gen_http_request(rng);
  const std::string wire = testkit::http_wire(request);

  {
    net::RequestParser parser;
    feed_in_splits(rng, parser, wire);
    FUZZ_CHECK(parser.complete(),
               "split-fed request did not complete (state " +
                   std::to_string(static_cast<int>(parser.state())) + "): " + wire);
    check_matches(parser.request(), request);
  }

  // Pipelining: a second request already buffered behind the first.
  {
    const net::HttpRequest second = testkit::gen_http_request(rng);
    net::RequestParser parser;
    feed_in_splits(rng, parser, wire + testkit::http_wire(second));
    FUZZ_CHECK(parser.complete(), "first pipelined request did not complete");
    check_matches(parser.request(), request);
    parser.reset();
    FUZZ_CHECK(parser.complete(), "second pipelined request did not complete");
    check_matches(parser.request(), second);
  }

  // Completion boundary: one byte per feed, completion lands on exactly
  // the last byte of the frame. This is the incremental-resume property
  // the server depends on: a request is handled when and only when its
  // frame is whole.
  {
    net::RequestParser parser;
    std::size_t completed_at = 0;
    for (std::size_t i = 0; i < wire.size() && completed_at == 0; ++i) {
      parser.feed(wire.substr(i, 1));
      if (parser.complete()) completed_at = i + 1;
    }
    FUZZ_CHECK(completed_at == wire.size(),
               "byte-fed request completed at byte " + std::to_string(completed_at) +
                   " of " + std::to_string(wire.size()));
    check_matches(parser.request(), request);
  }

  // Adversarial half: corrupt framing must produce a definite verdict.
  {
    const std::string broken = testkit::mutate(rng, wire);
    net::RequestParser parser;
    feed_in_splits(rng, parser, broken);
    const net::RequestParser::State state = parser.state();
    FUZZ_CHECK(state == net::RequestParser::State::kComplete ||
                   state == net::RequestParser::State::kError ||
                   state == net::RequestParser::State::kHeaders ||
                   state == net::RequestParser::State::kBody,
               "parser in undefined state");
    if (parser.failed()) {
      FUZZ_CHECK(parser.error_status() >= 400 && parser.error_status() < 600,
                 "error without a valid HTTP status: " +
                     std::to_string(parser.error_status()));
    }
  }

  // Torn frame: a strict prefix must never complete with a wrong body.
  {
    const std::string torn = testkit::truncate(rng, wire);
    net::RequestParser parser;
    parser.feed(torn);
    if (parser.complete()) {
      // Only legitimate when the prefix happens to contain a full frame
      // (e.g. a body-less request cut exactly at the blank line).
      FUZZ_CHECK(request.body.rfind(parser.request().body, 0) == 0,
                 "truncated frame completed with a non-prefix body");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return provml::testkit::fuzz_main(argc, argv, "fuzz_net", 200, iteration);
}
