// Ablation: HTTP server serving-thread count. Mirrors the sweep-threading
// ablation (DESIGN.md §2): fixed client concurrency hammering the yProv
// service on loopback, measuring requests/s as the thread count grows.
// Route handling serializes on the store mutex, so the sweep exposes how
// much of the request path (parsing, socket I/O, response serialization)
// parallelizes around that critical section.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "provml/net/client.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/model.hpp"

namespace {

using namespace provml;
using namespace provml::net;

prov::Document seed_document(int pairs = 8) {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  for (int i = 0; i < pairs; ++i) {
    const std::string n = std::to_string(i);
    doc.add_entity("ex:ckpt" + n);
    doc.add_activity("ex:train" + n);
    doc.was_generated_by("ex:ckpt" + n, "ex:train" + n);
  }
  return doc;
}

/// Requests/s versus serving-thread count: 8 concurrent keep-alive clients,
/// each issuing GETs against the stats route.
void BM_ServerRequestThroughput(benchmark::State& state) {
  YProvHttpApp app;
  (void)app.service().put_document("exp", seed_document());
  ServerConfig config;
  config.threads = static_cast<unsigned>(state.range(0));
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  if (!server.start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server] {
        HttpClient client("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsPerClient; ++i) {
          auto r = client.get("/api/v0/documents/exp/stats");
          benchmark::DoNotOptimize(r.ok());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kClients * kRequestsPerClient);
  server.stop();
}
BENCHMARK(BM_ServerRequestThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Closed-loop read throughput: serving-thread sweep × response mode.
/// Mode 0 (uncached): every GET re-runs the route under the service's
/// shared lock. Mode 1 (cached): repeat reads at an unchanged graph
/// version are served from the LRU response cache — the body still
/// crosses the wire. Mode 2 (304): clients revalidate with If-None-Match
/// at the current version, so the server answers a bodyless 304 before
/// routing, locking, or cache lookup — the cheapest possible read.
/// 8 keep-alive clients cycling full-document GETs (the expensive
/// cacheable route: re-serializes 256 element/relation triples per
/// miss), stats GETs, and MATCH queries (never 304-eligible in modes
/// 0-1; queries do revalidate in mode 2).
void BM_ServerReadThroughput(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(1));
  YProvHttpApp::Options options;
  options.cache_capacity = mode != 0 ? 256 : 0;
  YProvHttpApp app(options);
  (void)app.service().put_document("exp", seed_document(256));
  ServerConfig config;
  config.threads = static_cast<unsigned>(state.range(0));
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  if (!server.start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  // The version is stable for the whole run; mode 2 revalidates with the
  // tag every response already carries.
  const std::string etag = "\"" + std::to_string(app.service().graph_version()) + "\"";
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, &etag, mode, c] {
        HttpClient client("127.0.0.1", server.port());
        std::vector<Header> conditional;
        if (mode == 2) conditional.push_back({"If-None-Match", etag});
        for (int i = 0; i < kRequestsPerClient; ++i) {
          switch ((c + i) % 3) {
            case 0: {
              auto r = client.get("/api/v0/documents/exp", conditional);
              benchmark::DoNotOptimize(r.ok());
              break;
            }
            case 1: {
              auto r = client.get("/api/v0/documents/exp/stats", conditional);
              benchmark::DoNotOptimize(r.ok());
              break;
            }
            default: {
              auto r = client.post("/api/v0/query",
                                   "MATCH (c:Entity)-[:wasGeneratedBy]->(a:Activity) "
                                   "RETURN c, a");
              benchmark::DoNotOptimize(r.ok());
              break;
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kClients * kRequestsPerClient);
  server.stop();
}
BENCHMARK(BM_ServerReadThroughput)
    ->ArgNames({"threads", "mode"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Active-path latency as a function of idle keep-alive population: the
/// epoll loop's core claim. N idle connections are parked on the server
/// (one fd each, no thread each), then one active client hammers the
/// stats route. With the event loop, req/s should stay flat as the idle
/// herd grows 0 → 2048; a thread-per-connection design would have
/// collapsed at `threads` idle peers.
void BM_ServerIdleConnectionSweep(benchmark::State& state) {
  YProvHttpApp app;
  (void)app.service().put_document("exp", seed_document());
  ServerConfig config;
  config.threads = 4;
  config.listen_backlog = 4096;
  config.read_timeout_ms = 120000;  // idle herd must outlive the run
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  if (!server.start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  const std::size_t idle_target = static_cast<std::size_t>(state.range(0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<int> idle_fds;
  idle_fds.reserve(idle_target);
  for (std::size_t i = 0; i < idle_target; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      state.SkipWithError("idle connect failed (fd limit?)");
      if (fd >= 0) ::close(fd);
      for (const int open_fd : idle_fds) ::close(open_fd);
      server.stop();
      return;
    }
    idle_fds.push_back(fd);
  }
  while (server.stats().open_connections < idle_target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  HttpClient client("127.0.0.1", server.port());
  for (auto _ : state) {
    auto r = client.get("/api/v0/documents/exp/stats");
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["idle_conns"] = static_cast<double>(idle_target);

  for (const int fd : idle_fds) ::close(fd);
  server.stop();
}
BENCHMARK(BM_ServerIdleConnectionSweep)
    ->ArgName("idle")
    ->Arg(0)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Single-connection round-trip latency for the stats-free health route.
void BM_ServerHealthRoundTrip(benchmark::State& state) {
  YProvHttpApp app;
  ServerConfig config;
  config.threads = 2;
  HttpServer server(config, [&app](const HttpRequest& r) { return app.handle(r); });
  if (!server.start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  HttpClient client("127.0.0.1", server.port());
  for (auto _ : state) {
    auto r = client.get("/api/v0/health");
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
  server.stop();
}
BENCHMARK(BM_ServerHealthRoundTrip)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
