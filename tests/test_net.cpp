#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "provml/cli/cli.hpp"
#include "provml/core/run.hpp"
#include "provml/json/parse.hpp"
#include "provml/net/client.hpp"
#include "provml/net/parser.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/fault.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/mutate.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::net {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ parser

TEST(RequestParser, ParsesACompleteRequestInOneFeed) {
  RequestParser parser;
  parser.feed("PUT /api/v0/documents/x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "PUT");
  EXPECT_EQ(parser.request().target, "/api/v0/documents/x");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_EQ(parser.request().body, "hello");
  ASSERT_NE(parser.request().header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*parser.request().header("HOST"), "a");
}

TEST(RequestParser, HandlesArbitrarySplitReads) {
  const std::string wire =
      "POST /api/v0/query HTTP/1.1\r\nContent-Length: 11\r\n\r\nMATCH (n) R";
  // Feed one byte at a time: framing must not depend on read boundaries.
  RequestParser parser;
  for (const char c : wire) {
    ASSERT_FALSE(parser.failed());
    parser.feed(std::string_view(&c, 1));
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().body, "MATCH (n) R");
}

TEST(RequestParser, PipelinedRequestsComeOutInOrder) {
  RequestParser parser;
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "PUT /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /c HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/a");
  parser.reset();
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().body, "hi");
  parser.reset();
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/c");
  parser.reset();
  EXPECT_EQ(parser.state(), RequestParser::State::kHeaders);  // buffer drained
}

TEST(RequestParser, OversizedHeaderSectionIs431) {
  ParserLimits limits;
  limits.max_header_bytes = 64;
  RequestParser parser(limits);
  parser.feed("GET /x HTTP/1.1\r\nX-Filler: " + std::string(100, 'a') + "\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, OversizedHeadersFailEvenWithoutTerminator) {
  ParserLimits limits;
  limits.max_header_bytes = 64;
  RequestParser parser(limits);
  parser.feed("GET /x HTTP/1.1\r\nX-Filler: " + std::string(200, 'a'));  // no blank line
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, MissingContentLengthOnPutIs411) {
  RequestParser parser;
  parser.feed("PUT /api/v0/documents/x HTTP/1.1\r\nHost: a\r\n\r\n{\"entity\":{}}");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 411);
}

TEST(RequestParser, GetWithoutContentLengthHasEmptyBody) {
  RequestParser parser;
  parser.feed("GET /api/v0/health HTTP/1.1\r\nHost: a\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(RequestParser, BodyBeyondLimitIs413) {
  ParserLimits limits;
  limits.max_body_bytes = 16;
  RequestParser parser(limits);
  parser.feed("PUT /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParser, MalformedFramesAre400) {
  for (const char* wire : {
           "NOT-A-REQUEST-LINE\r\n\r\n",
           "GET /x SPDY/9\r\n\r\n",
           "GET /x HTTP/1.1\r\nBroken header line\r\n\r\n",
           "PUT /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
       }) {
    RequestParser parser;
    parser.feed(wire);
    ASSERT_TRUE(parser.failed()) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

TEST(RequestParser, TransferEncodingIsRejected) {
  RequestParser parser;
  parser.feed("PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpRequestModel, KeepAliveDefaults) {
  HttpRequest req;
  req.version = "HTTP/1.1";
  EXPECT_TRUE(req.keep_alive());
  req.headers.push_back({"Connection", "close"});
  EXPECT_FALSE(req.keep_alive());
  HttpRequest old;
  old.version = "HTTP/1.0";
  EXPECT_FALSE(old.keep_alive());
  old.headers.push_back({"Connection", "keep-alive"});
  EXPECT_TRUE(old.keep_alive());
}

TEST(UrlParse, AcceptsHostPortAndBasePath) {
  const Url url = parse_url("http://127.0.0.1:8080").value();
  EXPECT_EQ(url.host, "127.0.0.1");
  EXPECT_EQ(url.port, 8080);
  EXPECT_EQ(url.base_path, "");
  const Url with_base = parse_url("http://10.0.0.1:99/yprov/").value();
  EXPECT_EQ(with_base.base_path, "/yprov");
  EXPECT_EQ(parse_url("http://example.org").value().port, 80);
  EXPECT_FALSE(parse_url("https://example.org").ok());
  EXPECT_FALSE(parse_url("ftp://example.org").ok());
  EXPECT_FALSE(parse_url("http://:8080").ok());
  EXPECT_FALSE(parse_url("http://h:70000").ok());
}

// ---------------------------------------------------------------- loopback

/// Sends raw bytes to the server, in chunks with a short pause between
/// them, and returns everything it answers until it closes the
/// connection. Used to exercise malformed-request and pipelining paths the
/// well-behaved HttpClient cannot produce.
std::string raw_exchange(std::uint16_t port, const std::vector<std::string>& chunks) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (void)::send(fd, chunks[i].data(), chunks[i].size(), MSG_NOSIGNAL);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string raw_exchange(std::uint16_t port, const std::string& wire) {
  return raw_exchange(port, std::vector<std::string>{wire});
}

TEST(HttpServer, LoopbackEndToEndWithARealRunDocument) {
  // 1. Produce a genuine PROV-JSON document with the provml_core logger.
  const fs::path dir = fs::temp_directory_path() / "provml_net_e2e";
  fs::remove_all(dir);
  core::RunOptions options;
  options.provenance_dir = dir.string();
  core::Experiment experiment("net_e2e");
  core::Run& run = experiment.start_run(options, "served_run");
  run.log_param("learning_rate", 1e-3);
  run.log_param("batch_size", 64);
  run.begin_epoch(core::contexts::kTraining, 0);
  run.log_metric("loss", 0.5, 0);
  run.end_epoch(core::contexts::kTraining, 0);
  run.log_artifact("checkpoint", "ckpt.pt", core::IoRole::kOutput);
  ASSERT_TRUE(run.finish().ok());
  std::ifstream file(run.provenance_path());
  ASSERT_TRUE(file.good());
  std::stringstream raw;
  raw << file.rdbuf();
  const std::string body = raw.str();
  ASSERT_FALSE(body.empty());

  // Expected node count: what the facade reports when fed directly.
  graphstore::YProvService reference;
  ASSERT_TRUE(reference.put_document("served_run", run.document()).ok());
  const graphstore::Response expected =
      reference.handle({"GET", "/api/v0/documents/served_run/stats", ""});
  const std::int64_t expected_nodes =
      json::parse(expected.body).take().find("nodes")->as_int();
  ASSERT_GT(expected_nodes, 0);

  // 2. Serve on an ephemeral port and drive everything through TCP.
  YProvHttpApp app;
  ServerConfig config;
  config.threads = 3;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();
  ASSERT_NE(port, 0);

  HttpClient client("127.0.0.1", port);
  auto put = client.put("/api/v0/documents/served_run", body);
  ASSERT_TRUE(put.ok()) << put.error().to_string();
  EXPECT_EQ(put.value().status, 201);

  auto stats = client.get("/api/v0/documents/served_run/stats");
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().status, 200);
  EXPECT_EQ(json::parse(stats.value().body).take().find("nodes")->as_int(),
            expected_nodes);

  // Lineage through the element route: the run activity must be reachable.
  auto element = client.get("/api/v0/documents/served_run/elements/run:execution");
  ASSERT_TRUE(element.ok());
  if (element.value().status == 200) {
    EXPECT_NE(element.value().body.find("incoming"), std::string::npos);
  }

  auto health = client.get("/api/v0/health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  const json::Value health_body = json::parse(health.value().body).take();
  EXPECT_EQ(health_body.find("status")->as_string(), "ok");
  EXPECT_EQ(health_body.find("documents")->as_int(), 1);
  EXPECT_GE(health_body.find("requests")->as_int(), 2);

  // 3. Keep-alive: all requests above rode one pooled connection.
  const ServerStats server_stats = server.stats();
  EXPECT_EQ(server_stats.connections_accepted, 1u);
  EXPECT_GE(server_stats.requests_handled, 4u);
  EXPECT_EQ(server_stats.responses_5xx, 0u);

  // 4. Clean shutdown: threads joined, port released and rebindable.
  server.stop();
  EXPECT_FALSE(server.running());
  ClientConfig no_retry;
  no_retry.retries = 0;
  HttpClient refused("127.0.0.1", port, no_retry);
  EXPECT_FALSE(refused.get("/api/v0/health").ok());

  ServerConfig rebind = config;
  rebind.port = port;
  HttpServer second(rebind, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(second.start().ok()) << "port not released";
  second.stop();
  fs::remove_all(dir);
}

TEST(HttpServer, ConcurrentClientsAllSucceed) {
  YProvHttpApp app;
  ServerConfig config;
  config.threads = 4;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto r = client.get("/api/v0/health");
        if (r.ok() && r.value().status == 200) ++ok_counts[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[c], kRequestsPerClient) << "client " << c;
  }
  EXPECT_EQ(server.stats().requests_handled,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  server.stop();
}

TEST(HttpServer, MalformedRequestsGetHttpErrorStatuses) {
  YProvHttpApp app;
  ServerConfig config;
  config.limits.max_header_bytes = 256;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  EXPECT_NE(raw_exchange(server.port(), "BOGUS\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(raw_exchange(server.port(),
                         "GET /x HTTP/1.1\r\nX-F: " + std::string(400, 'a') + "\r\n\r\n")
                .find("HTTP/1.1 431"),
            std::string::npos);
  EXPECT_NE(raw_exchange(server.port(), "PUT /x HTTP/1.1\r\nHost: a\r\n\r\n")
                .find("HTTP/1.1 411"),
            std::string::npos);
  EXPECT_EQ(server.stats().parse_errors, 3u);
  server.stop();
}

TEST(HttpServer, MethodNotAllowedCarriesAllowHeader) {
  YProvHttpApp app;
  ServerConfig config;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  // A wrong method on a routed resource: 405 plus the methods that would
  // have worked, as a real Allow: header on the wire (RFC 9110 §15.5.6).
  const std::string on_document = raw_exchange(
      server.port(),
      "POST /api/v0/documents/x HTTP/1.1\r\nContent-Length: 1\r\n"
      "Connection: close\r\n\r\nx");
  EXPECT_NE(on_document.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(on_document.find("Allow: GET, PUT, DELETE"), std::string::npos);

  const std::string on_health = raw_exchange(
      server.port(),
      "POST /api/v0/health HTTP/1.1\r\nContent-Length: 1\r\n"
      "Connection: close\r\n\r\nx");
  EXPECT_NE(on_health.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(on_health.find("Allow: GET"), std::string::npos);
  server.stop();
}

TEST(HttpServer, ReadTimeoutAnswers408OnPartialRequest) {
  YProvHttpApp app;
  ServerConfig config;
  config.read_timeout_ms = 100;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());
  // Half a request, then silence: the server must reap the connection.
  const std::string reply = raw_exchange(server.port(), "GET /api/v0/health HT");
  EXPECT_NE(reply.find("HTTP/1.1 408"), std::string::npos);
  EXPECT_EQ(server.stats().read_timeouts, 1u);
  server.stop();
}

TEST(HttpServer, PipelinedRequestsOnOneConnection) {
  {
    YProvHttpApp app;
    ServerConfig config;
    HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
    ASSERT_TRUE(server.start().ok());
    const std::string reply = raw_exchange(
        server.port(),
        "GET /api/v0/health HTTP/1.1\r\n\r\n"
        "GET /api/v0/documents HTTP/1.1\r\n\r\n"
        "GET /api/v0/health HTTP/1.1\r\nConnection: close\r\n\r\n");
    // Three responses on the wire, then the server closes (Connection: close).
    std::size_t count = 0;
    for (std::size_t pos = reply.find("HTTP/1.1 200"); pos != std::string::npos;
         pos = reply.find("HTTP/1.1 200", pos + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 3u);
    EXPECT_EQ(server.stats().connections_accepted, 1u);
    server.stop();
  }

  // Eight pipelined requests on four threads, the second half sent while
  // the first is being served: one connection is served by one thread at
  // a time, so the handler never overlaps itself and the answers come
  // back in request order.
  std::atomic<int> running{0};
  std::atomic<bool> overlapped{false};
  ServerConfig config;
  config.threads = 4;
  HttpServer server(config, [&](const HttpRequest& request) {
    if (running.fetch_add(1) != 0) overlapped = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    running.fetch_sub(1);
    HttpResponse response;
    response.body = request.target;
    return response;
  });
  ASSERT_TRUE(server.start().ok());
  std::vector<std::string> chunks(2);
  for (int i = 0; i < 8; ++i) {
    chunks[static_cast<std::size_t>(i / 4)] +=
        "GET /r" + std::to_string(i) + " HTTP/1.1\r\n" +
        (i == 7 ? "Connection: close\r\n" : "") + "\r\n";
  }
  const std::string reply = raw_exchange(server.port(), chunks);
  std::size_t pos = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string body = "\r\n\r\n/r" + std::to_string(i);
    const std::size_t at = reply.find(body, pos);
    ASSERT_NE(at, std::string::npos) << "response " << i << " missing or out of order";
    pos = at + body.size();
  }
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(server.stats().requests_handled, 8u);
  server.stop();
}

/// A handler that blocks holds only its own thread: a request on another
/// connection is served meanwhile by the other thread.
TEST(HttpServer, BlockedHandlerDoesNotDelayOtherConnections) {
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ServerConfig config;
  config.threads = 2;
  HttpServer server(config, [&](const HttpRequest& request) {
    if (request.target == "/block") {
      entered.set_value();
      opened.wait();
    }
    return HttpResponse{};
  });
  ASSERT_TRUE(server.start().ok());

  std::thread blocked([&] {
    HttpClient client("127.0.0.1", server.port());
    auto r = client.get("/block");
    EXPECT_TRUE(r.ok() && r.value().status == 200);
  });
  entered.get_future().wait();

  ClientConfig no_retry;
  no_retry.retries = 0;
  no_retry.io_timeout_ms = 2000;
  HttpClient other("127.0.0.1", server.port(), no_retry);
  const auto t0 = std::chrono::steady_clock::now();
  auto fast = other.get("/fast");
  const auto waited = std::chrono::steady_clock::now() - t0;
  gate.set_value();  // only now may /block finish
  blocked.join();
  ASSERT_TRUE(fast.ok()) << fast.error().to_string();
  EXPECT_EQ(fast.value().status, 200);
  EXPECT_LT(waited, std::chrono::milliseconds(1000));
  server.stop();
}

/// stop() during a handler lets that exchange finish: it returns only
/// after the response is on the wire, and the response says
/// Connection: close (then the server closes the connection).
TEST(HttpServer, StopDuringAHandlerWritesItsResponseWithClose) {
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ServerConfig config;
  config.threads = 2;
  HttpServer server(config, [&](const HttpRequest&) {
    entered.set_value();
    opened.wait();
    HttpResponse response;
    response.body = "finished";
    return response;
  });
  ASSERT_TRUE(server.start().ok());

  std::string reply;
  std::thread peer([&] {
    // A keep-alive request: only the stop can add Connection: close.
    reply = raw_exchange(server.port(), "GET /slow HTTP/1.1\r\n\r\n");
  });
  entered.get_future().wait();

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.stop();
    stopped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "stop() returned while a handler was running";
  gate.set_value();
  stopper.join();
  peer.join();

  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos) << reply;
  ASSERT_GE(reply.size(), 8u);
  EXPECT_EQ(reply.substr(reply.size() - 8), "finished");
  EXPECT_FALSE(server.running());
}

TEST(HttpClient, RetriesWithBackoffThenReportsRefusal) {
  // Bind-then-close to get a port with no listener.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);

  ClientConfig config;
  config.retries = 2;
  config.retry_backoff_ms = 10;
  HttpClient client("127.0.0.1", dead_port, config);
  const auto t0 = std::chrono::steady_clock::now();
  auto r = client.get("/api/v0/health");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.ok());
  // Two retries with 10ms then 20ms backoff must have actually waited.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 30);
}

// --------------------------------------------------------------- remote CLI

TEST(RemoteCli, IngestQueryStatsOverHttp) {
  const fs::path dir = fs::temp_directory_path() / "provml_net_cli";
  fs::remove_all(dir);
  fs::create_directories(dir);
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:model");
  doc.add_activity("ex:train");
  doc.was_generated_by("ex:model", "ex:train");
  const std::string file = (dir / "doc.provjson").string();
  ASSERT_TRUE(prov::write_prov_json_file(file, doc).ok());

  YProvHttpApp app;
  ServerConfig config;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());
  const std::string url = "http://127.0.0.1:" + std::to_string(server.port());

  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli({"ingest", "--url", url, "exp=" + file}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("ingested exp"), std::string::npos);

  out.str("");
  EXPECT_EQ(cli::run_cli({"stats", "--url", url, "exp"}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("\"nodes\":2"), std::string::npos) << out.str();

  out.str("");
  EXPECT_EQ(cli::run_cli({"query", "--url", url,
                          "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN e"},
                         out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("e=ex:model"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("1 row(s)"), std::string::npos);

  // Unreachable service surfaces a clean error, not a hang or crash.
  out.str("");
  err.str("");
  EXPECT_NE(cli::run_cli({"stats", "--url", "http://127.0.0.1:1", "exp"}, out, err), 0);
  EXPECT_NE(err.str().find("error"), std::string::npos);

  server.stop();
  fs::remove_all(dir);
}

// ------------------------------------------------- testkit-driven coverage

/// Generated requests fed in random fragments always parse back to the
/// original; byte-level corruption always lands the parser in a definite
/// state. (The standalone fuzz_net driver runs the same properties at
/// fuzzing scale; this keeps a fast slice in the tier-1 suite.)
TEST(RequestParserFuzz, GeneratedRequestsSurviveRandomSplits) {
  testkit::Rng rng(0x6E6574);
  for (int i = 0; i < 50; ++i) {
    const HttpRequest request = testkit::gen_http_request(rng);
    const std::string wire = testkit::http_wire(request);
    RequestParser parser;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t len = rng.below(wire.size() - offset + 2);
      parser.feed(std::string_view(wire).substr(offset, len));
      offset += len;
    }
    ASSERT_TRUE(parser.complete()) << wire;
    EXPECT_EQ(parser.request().method, request.method);
    EXPECT_EQ(parser.request().target, request.target);
    EXPECT_EQ(parser.request().body, request.body);
    for (const Header& h : request.headers) {
      const std::string* value = parser.request().header(h.name);
      ASSERT_NE(value, nullptr) << h.name;
      EXPECT_EQ(*value, h.value);
    }
  }
}

TEST(RequestParserFuzz, MutatedWireImagesLandInADefiniteState) {
  testkit::Rng rng(0x6D7574);
  for (int i = 0; i < 100; ++i) {
    const std::string wire = testkit::http_wire(testkit::gen_http_request(rng));
    RequestParser parser;
    parser.feed(testkit::mutate(rng, wire));
    const RequestParser::State state = parser.state();
    EXPECT_TRUE(state == RequestParser::State::kComplete ||
                state == RequestParser::State::kError ||
                state == RequestParser::State::kHeaders ||
                state == RequestParser::State::kBody);
    if (parser.failed()) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    }
  }
}

// ------------------------------------------------ incremental parser units

/// Byte-at-a-time delivery is the event loop's worst case: every recv()
/// may carry a single octet. The parser must resume its header scan from
/// where it stopped (not rescan from offset 0) and end in exactly the
/// same state a one-shot feed produces.
TEST(RequestParser, ResumesAcrossByteSizedFeeds) {
  std::string wire = "PUT /api/v0/documents/big HTTP/1.1\r\n";
  for (int i = 0; i < 64; ++i) {
    wire += "X-Pad-" + std::to_string(i) + ": " + std::string(48, 'p') + "\r\n";
  }
  wire += "Content-Length: 6\r\n\r\nabcdef";

  RequestParser one_shot;
  one_shot.feed(wire);
  ASSERT_TRUE(one_shot.complete());

  RequestParser trickle;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_FALSE(trickle.failed()) << "failed at byte " << i;
    EXPECT_EQ(trickle.complete(), false) << "complete before byte " << i;
    trickle.feed(std::string_view(wire).substr(i, 1));
  }
  ASSERT_TRUE(trickle.complete());
  EXPECT_EQ(trickle.request().target, one_shot.request().target);
  EXPECT_EQ(trickle.request().body, "abcdef");
  EXPECT_EQ(trickle.request().headers.size(), one_shot.request().headers.size());
}

/// The terminator straddling a feed boundary is the classic resumption
/// bug: the scan must back up far enough to see a split "\r\n\r\n".
TEST(RequestParser, HeaderTerminatorSplitAcrossFeedsIsFound) {
  const std::string wire = "GET /x HTTP/1.1\r\nHost: a\r\n\r\n";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    RequestParser parser;
    parser.feed(std::string_view(wire).substr(0, split));
    parser.feed(std::string_view(wire).substr(split));
    ASSERT_TRUE(parser.complete()) << "split at " << split;
    EXPECT_EQ(parser.request().target, "/x");
  }
}

TEST(RequestParser, TakeRequestMovesOutAndIdleTracksBufferState) {
  RequestParser parser;
  EXPECT_TRUE(parser.idle());  // fresh parser: nothing buffered
  parser.feed("GET /a HTTP/1.1\r\n");
  EXPECT_FALSE(parser.idle());  // mid-request: a timeout would be a 408
  parser.feed("\r\n");
  ASSERT_TRUE(parser.complete());
  const HttpRequest taken = parser.take_request();
  EXPECT_EQ(taken.target, "/a");
  parser.reset();
  EXPECT_TRUE(parser.idle());  // drained keep-alive connection
}

// ---------------------------------------------------- event loop at scale

/// The reason the server is an epoll loop at all: hundreds of idle
/// keep-alive connections must cost a file descriptor each — not a
/// thread each — while active clients keep getting answers. With the old
/// thread-per-connection design, 512 idle peers on 4 worker threads
/// would starve every active client forever.
TEST(HttpServer, Holds512IdleKeepAliveConnectionsWhileServingActiveClients) {
  YProvHttpApp app;
  ServerConfig config;
  config.threads = 4;
  config.listen_backlog = 1024;
  config.read_timeout_ms = 30000;  // idle peers must outlive the test
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  constexpr std::size_t kIdle = 512;
  std::vector<int> idle_fds;
  idle_fds.reserve(kIdle);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (std::size_t i = 0; i < kIdle; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
        << "connect " << i << ": " << std::strerror(errno);
    idle_fds.push_back(fd);
  }

  // The serving threads accept asynchronously; wait for the gauge to
  // catch up before asserting anything about it.
  for (int spin = 0; spin < 500 && server.stats().open_connections < kIdle; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().open_connections, kIdle);

  // Active clients must still get every answer, promptly, from 4 threads.
  constexpr int kActiveClients = 2;
  constexpr int kRequestsEach = 25;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kActiveClients, 0);
  for (int c = 0; c < kActiveClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        auto r = client.get("/api/v0/health");
        if (r.ok() && r.value().status == 200) ++ok_counts[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kActiveClients; ++c) {
    EXPECT_EQ(ok_counts[c], kRequestsEach) << "active client " << c;
  }

  // The idle herd is still connected (nothing was reaped or starved out).
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.open_connections, kIdle);
  EXPECT_GE(stats.connections_accepted, kIdle + kActiveClients);
  EXPECT_EQ(stats.requests_handled,
            static_cast<std::uint64_t>(kActiveClients * kRequestsEach));
  EXPECT_GT(stats.epoll_wakeups, 0u);

  for (const int fd : idle_fds) ::close(fd);
  server.stop();
}

TEST(HttpServer, MaxConnectionsShedsExcessWith503AndClose) {
  YProvHttpApp app;
  ServerConfig config;
  config.max_connections = 4;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  // Fill the cap with idle keep-alive connections.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<int> held;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    held.push_back(fd);
  }
  for (int spin = 0; spin < 500 && server.stats().open_connections < 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().open_connections, 4u);

  // One over the cap: a real HTTP 503 with Connection: close, then EOF.
  const std::string reply = raw_exchange(server.port(), "GET /api/v0/health HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.1 503"), std::string::npos) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_GE(server.stats().connections_shed, 1u);

  // The well-behaved client sees the 503, honors the close, and its next
  // attempt reconnects fresh (succeeding once capacity frees up).
  ClientConfig no_retry;
  no_retry.retries = 0;
  HttpClient client("127.0.0.1", server.port(), no_retry);
  auto shed = client.get("/api/v0/health");
  ASSERT_TRUE(shed.ok()) << shed.error().to_string();
  EXPECT_EQ(shed.value().status, 503);
  EXPECT_TRUE(shed.value().close);

  for (const int fd : held) ::close(fd);
  for (int spin = 0; spin < 500 && server.stats().open_connections > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto ok = client.get("/api/v0/health");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().status, 200);
  server.stop();
}

// ------------------------------------------------- conditional GET (ETag)

TEST(HttpServer, ConditionalGetAnswers304UntilTheGraphChanges) {
  YProvHttpApp app;
  ServerConfig config;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());
  HttpClient client("127.0.0.1", server.port());

  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:model");
  doc.add_activity("ex:train");
  doc.was_generated_by("ex:model", "ex:train");
  ASSERT_EQ(client.put("/api/v0/documents/a", prov::to_prov_json_string(doc))
                .value()
                .status,
            201);

  // First read: a full 200 carrying the version as its entity tag.
  auto first = client.get("/api/v0/documents/a/stats");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().status, 200);
  const std::string* etag = first.value().header("ETag");
  ASSERT_NE(etag, nullptr);
  EXPECT_EQ(etag->front(), '"');
  EXPECT_EQ(etag->back(), '"');

  // Revalidation at the same version: bodyless 304, handler never runs.
  auto revalidated = client.get("/api/v0/documents/a/stats", {{"If-None-Match", *etag}});
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated.value().status, 304);
  EXPECT_TRUE(revalidated.value().body.empty());
  EXPECT_EQ(app.counters().responses_304, 1u);

  // A weak or listed tag still matches (RFC 9110 §8.8.3.2 comparison).
  auto weak = client.get("/api/v0/documents/a/stats",
                         {{"If-None-Match", "\"0\", W/" + *etag}});
  ASSERT_TRUE(weak.ok());
  EXPECT_EQ(weak.value().status, 304);

  // Any write moves the graph version: the held tag goes stale and the
  // next conditional GET gets a full 200 with the fresh tag.
  ASSERT_EQ(client.put("/api/v0/documents/b", prov::to_prov_json_string(doc))
                .value()
                .status,
            201);
  auto stale = client.get("/api/v0/documents/a/stats", {{"If-None-Match", *etag}});
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value().status, 200);
  const std::string* fresh = stale.value().header("ETag");
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(*fresh, *etag);
  EXPECT_FALSE(stale.value().body.empty());
  server.stop();
}

// ---------------------------------------------------------- representation

/// Every response body is the bytes the route produced, whatever the peer
/// asks for: a GET carrying `Accept-Encoding: pmlc` gets the stored
/// document verbatim, with no Content-Encoding or Vary header, both when
/// the route runs (cache miss) and when the response cache answers (hit).
TEST(HttpServer, ResponseBodyIsTheStoredBytesWhateverTheAcceptEncoding) {
  YProvHttpApp app;
  ServerConfig config;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  // Large and repetitive enough that any compressing server would encode it.
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  for (int i = 0; i < 64; ++i) {
    const std::string id = "ex:entity_" + std::to_string(i);
    doc.add_entity(id);
    doc.add_activity("ex:activity_" + std::to_string(i));
    doc.was_generated_by(id, "ex:activity_" + std::to_string(i));
  }
  HttpClient client("127.0.0.1", server.port());
  ASSERT_EQ(client.put("/api/v0/documents/big", prov::to_prov_json_string(doc)).value().status,
            201);
  const std::string stored = prov::to_prov_json_string(doc, /*pretty=*/false);

  for (const std::uint64_t hits : {0u, 1u}) {
    const std::string raw = raw_exchange(
        server.port(),
        "GET /api/v0/documents/big HTTP/1.1\r\nAccept-Encoding: pmlc\r\n"
        "Connection: close\r\n\r\n");
    const std::size_t head_end = raw.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos) << raw;
    const std::string head = raw.substr(0, head_end);
    EXPECT_EQ(head.rfind("HTTP/1.1 200", 0), 0u) << head;
    EXPECT_EQ(head.find("Content-Encoding"), std::string::npos) << head;
    EXPECT_EQ(head.find("Vary"), std::string::npos) << head;
    EXPECT_EQ(raw.substr(head_end + 4), stored);
    EXPECT_EQ(app.counters().cache_hits, hits);
    EXPECT_EQ(app.counters().cache_misses, 1u);
  }
  server.stop();
}

// --------------------------------------------------------- fault injection

/// An injected net.send fault must surface as a clean client-side error,
/// leave the server healthy, and stop firing once disarmed.
TEST(HttpServer, InjectedSendFaultGivesCleanErrorAndServerSurvives) {
  YProvHttpApp app;
  ServerConfig config;
  config.threads = 2;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  ASSERT_TRUE(server.start().ok());

  ClientConfig no_retry;
  no_retry.retries = 0;
  HttpClient client("127.0.0.1", server.port(), no_retry);

  auto before = client.get("/api/v0/health");
  ASSERT_TRUE(before.ok()) << before.error().to_string();
  EXPECT_EQ(before.value().status, 200);

  {
    testkit::ScopedFault fault("net.send", {.probability = 1.0, .seed = 3});
    auto during = client.get("/api/v0/health");
    EXPECT_FALSE(during.ok());  // typed error, not a crash or a hang
    EXPECT_GT(fault.failures(), 0u);
  }

  // Disarmed: the same client recovers on a fresh connection and the
  // server is still serving.
  auto after = client.get("/api/v0/health");
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_EQ(after.value().status, 200);

  server.stop();
}

}  // namespace
}  // namespace provml::net
