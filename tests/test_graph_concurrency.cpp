// Concurrency and planner-equivalence suite for the indexed graph engine
// and the reader/writer service path (ctest label `graph`).
//
// Two pillars:
//  - Property: run_query() (planned: indexed anchor, optional reversal,
//    condition pushdown) returns *identical* rows to run_query_brute_force()
//    (full scan, forward, post-filter) on randomly generated graph/query
//    pairs across fixed seeds.
//  - Concurrency: N reader threads hammer the service/HTTP app while a
//    writer ingests, replaces, and deletes documents. Run under
//    -DPROVML_SANITIZE=thread this is the data-race oracle for the
//    shared_mutex + version-counter + LRU-cache design.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::graphstore {
namespace {

using testkit::Rng;

// ------------------------------------------------- planner == brute force

TEST(QueryEquivalence, PlannerMatchesBruteForceAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 60; ++iter) {
      const PropertyGraph graph = testkit::gen_property_graph(rng);
      const std::string text = testkit::gen_graph_query(rng);
      const Expected<Query> query = parse_query(text);
      ASSERT_TRUE(query.ok()) << "seed " << seed << " iter " << iter << ": " << text
                              << " — " << query.error().to_string();
      const auto planned = run_query(graph, query.value());
      const auto brute = run_query_brute_force(graph, query.value());
      ASSERT_EQ(planned.ok(), brute.ok())
          << "seed " << seed << " iter " << iter << ": " << text;
      if (!planned.ok()) continue;
      EXPECT_EQ(planned.value(), brute.value())
          << "seed " << seed << " iter " << iter << ": " << text;
    }
  }
}

TEST(QueryPlan, PicksMostSelectiveAnchor) {
  PropertyGraph g;
  // 50 Entity nodes, one of which carries a unique property; 2 Run nodes.
  for (int i = 0; i < 50; ++i) {
    const NodeId id = g.add_node({"Entity"});
    if (i == 7) g.set_property(id, "name", json::Value(std::string("needle")));
  }
  const NodeId run_a = g.add_node({"Run"});
  const NodeId run_b = g.add_node({"Run"});
  (void)run_a;
  (void)run_b;

  // Property anchor beats the label scan: posting list of size 1 vs 50.
  {
    const auto q = parse_query("MATCH (e:Entity {name: \"needle\"}) RETURN e");
    ASSERT_TRUE(q.ok());
    const QueryPlan plan = explain_query(g, q.value());
    EXPECT_EQ(plan.anchor, QueryPlan::Anchor::kProperty);
    EXPECT_EQ(plan.label, "Entity");
    EXPECT_EQ(plan.property_key, "name");
    EXPECT_EQ(plan.estimated_candidates, 1u);
    EXPECT_FALSE(plan.reversed);
  }

  // The rarer label wins when only labels are available.
  {
    const auto q = parse_query("MATCH (r:Run) RETURN r");
    ASSERT_TRUE(q.ok());
    const QueryPlan plan = explain_query(g, q.value());
    EXPECT_EQ(plan.anchor, QueryPlan::Anchor::kLabel);
    EXPECT_EQ(plan.label, "Run");
    EXPECT_EQ(plan.estimated_candidates, 2u);
  }

  // A more selective *far* endpoint flips the match direction.
  {
    const auto q = parse_query("MATCH (e:Entity)-[:used]->(r:Run) RETURN e, r");
    ASSERT_TRUE(q.ok());
    const QueryPlan plan = explain_query(g, q.value());
    EXPECT_TRUE(plan.reversed);
    EXPECT_EQ(plan.label, "Run");
    EXPECT_EQ(plan.estimated_candidates, 2u);
  }

  // No label or property anywhere: full scan, never reversed.
  {
    const auto q = parse_query("MATCH (a)-[]->(b) RETURN a, b");
    ASSERT_TRUE(q.ok());
    const QueryPlan plan = explain_query(g, q.value());
    EXPECT_EQ(plan.anchor, QueryPlan::Anchor::kScanAll);
    EXPECT_FALSE(plan.reversed);
  }
}

// ------------------------------------------------------- concurrent service

std::string put_body(Rng& rng) {
  testkit::ProvGenOptions opts;
  opts.max_elements = 6;
  opts.max_relations = 8;
  opts.with_bundles = false;
  return prov::to_prov_json_string(testkit::gen_prov_document(rng, opts),
                                   /*pretty=*/false);
}

TEST(ServiceConcurrency, ReadersProgressWhileWriterMutates) {
  YProvService service;
  Rng seed_rng(11);
  // Pre-load a couple of documents so readers have something to hit.
  for (int i = 0; i < 2; ++i) {
    const Request put{"PUT", "/api/v0/documents/doc" + std::to_string(i),
                      put_body(seed_rng)};
    ASSERT_EQ(service.handle(put).status, 201);
  }

  // Readers run a *bounded* loop rather than spinning on a done flag: the
  // platform rwlock is reader-preferring, so on a single core an unbounded
  // reader spin can starve the writer indefinitely (observed as a livelock
  // when this test gated readers on writer completion).
  constexpr int kReaders = 4;
  constexpr int kWriterOps = 40;
  constexpr int kReadsPerReader = 400;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&service, &reads, &failures, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReadsPerReader; ++i) {
        Request req;
        switch (rng.below(4)) {
          case 0: req = {"GET", "/api/v0/documents", ""}; break;
          case 1:
            req = {"GET", "/api/v0/documents/doc" + std::to_string(rng.below(4)), ""};
            break;
          case 2:
            req = {"GET",
                   "/api/v0/documents/doc" + std::to_string(rng.below(4)) + "/stats",
                   ""};
            break;
          default:
            req = {"POST", "/api/v0/query", "MATCH (e:Entity) RETURN e"};
            break;
        }
        const Response r = service.handle(req);
        // Every route must answer coherently mid-write: 200 or a clean 404
        // for a document the writer just deleted.
        if (r.status != 200 && r.status != 404) failures.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (i % 16 == 0) std::this_thread::yield();  // give the writer a slot
      }
    });
  }

  Rng writer_rng(7);
  std::uint64_t last_version = service.graph_version();
  for (int op = 0; op < kWriterOps; ++op) {
    const std::string name = "doc" + std::to_string(writer_rng.below(4));
    if (writer_rng.chance(0.25)) {
      (void)service.handle({"DELETE", "/api/v0/documents/" + name, ""});
    } else {
      const Response r =
          service.handle({"PUT", "/api/v0/documents/" + name, put_body(writer_rng)});
      EXPECT_EQ(r.status, 201);
    }
    const std::uint64_t version = service.graph_version();
    EXPECT_GE(version, last_version);  // monotonic under concurrency
    last_version = version;
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  // Writer made at least one successful mutation per op class.
  EXPECT_GT(service.graph_version(), 0u);
}

TEST(HttpAppConcurrency, CachedReadsStayCoherentAcrossWrites) {
  net::YProvHttpApp::Options options;
  options.cache_capacity = 8;  // small: force eviction under load
  net::YProvHttpApp app(options);

  Rng seed_rng(21);
  net::HttpRequest put;
  put.method = "PUT";
  put.target = "/api/v0/documents/shared";
  put.body = put_body(seed_rng);
  ASSERT_EQ(app.handle(put).status, 201);

  // Bounded reader loops, for the same reader-preferring-rwlock reason as
  // ServiceConcurrency above.
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 300;
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&app, &failures, t] {
      Rng rng(200 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReadsPerReader; ++i) {
        net::HttpRequest req;
        req.method = "GET";
        switch (rng.below(3)) {
          case 0: req.target = "/api/v0/documents"; break;
          case 1: req.target = "/api/v0/documents/shared"; break;
          default: req.target = "/api/v0/health"; break;
        }
        const net::HttpResponse r = app.handle(req);
        if (r.status != 200 && r.status != 404) failures.fetch_add(1);
        if (i % 16 == 0) std::this_thread::yield();
      }
    });
  }

  for (int op = 0; op < 25; ++op) {
    net::HttpRequest write;
    write.method = "PUT";
    write.target = "/api/v0/documents/shared";
    write.body = put_body(seed_rng);
    EXPECT_EQ(app.handle(write).status, 201);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // After the last write, a GET must reflect the final body — the cache is
  // version-keyed, so the pre-write entries can no longer be served.
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/api/v0/documents/shared";
  const net::HttpResponse first = app.handle(get);
  const net::HttpResponse second = app.handle(get);  // same version: cache hit
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.body, second.body);

  const net::YProvHttpApp::Counters counters = app.counters();
  EXPECT_GT(counters.cache_hits + counters.cache_misses, 0u);
  EXPECT_EQ(counters.requests,
            counters.reads + counters.writes);
}

TEST(HttpAppCache, VersionKeyNeverServesStaleBody) {
  net::YProvHttpApp app;  // default cache enabled
  Rng rng(31);

  net::HttpRequest put;
  put.method = "PUT";
  put.target = "/api/v0/documents/d";
  put.body = put_body(rng);
  ASSERT_EQ(app.handle(put).status, 201);

  net::HttpRequest get;
  get.method = "GET";
  get.target = "/api/v0/documents/d";
  const std::string before = app.handle(get).body;   // miss → cached
  EXPECT_EQ(app.handle(get).body, before);           // hit
  EXPECT_GE(app.counters().cache_hits, 1u);

  net::HttpRequest replace;
  replace.method = "PUT";
  replace.target = "/api/v0/documents/d";
  replace.body = put_body(rng);  // different generated document
  ASSERT_EQ(app.handle(replace).status, 201);

  const std::string after = app.handle(get).body;
  const auto parsed = json::parse(after);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(after, before);  // version bumped: old cache entry unreachable
}

TEST(HttpAppCache, EvictedEntryIsAMissThatServesTheRightBody) {
  net::YProvHttpApp::Options options;
  options.cache_capacity = 2;
  net::YProvHttpApp app(options);
  Rng rng(51);
  const std::vector<std::string> names{"a", "b", "c"};
  for (const std::string& name : names) {
    net::HttpRequest put;
    put.method = "PUT";
    put.target = "/api/v0/documents/" + name;
    put.body = put_body(rng);
    ASSERT_EQ(app.handle(put).status, 201);
  }
  // Three GETs at one version into two slots: caching "c" evicts "a".
  std::vector<std::string> bodies;
  for (const std::string& name : names) {
    net::HttpRequest get;
    get.method = "GET";
    get.target = "/api/v0/documents/" + name;
    bodies.push_back(app.handle(get).body);
  }
  EXPECT_EQ(app.counters().cache_misses, 3u);

  net::HttpRequest again;
  again.method = "GET";
  again.target = "/api/v0/documents/a";
  const net::HttpResponse r = app.handle(again);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, bodies[0]);
  EXPECT_EQ(app.counters().cache_hits, 0u);
  EXPECT_EQ(app.counters().cache_misses, 4u);
}

TEST(HttpAppCache, ZeroCapacityDisablesCaching) {
  net::YProvHttpApp::Options options;
  options.cache_capacity = 0;
  net::YProvHttpApp app(options);
  Rng rng(41);

  net::HttpRequest put;
  put.method = "PUT";
  put.target = "/api/v0/documents/d";
  put.body = put_body(rng);
  ASSERT_EQ(app.handle(put).status, 201);

  net::HttpRequest get;
  get.method = "GET";
  get.target = "/api/v0/documents/d";
  EXPECT_EQ(app.handle(get).status, 200);
  EXPECT_EQ(app.handle(get).status, 200);
  const net::YProvHttpApp::Counters counters = app.counters();
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 0u);
}

// ------------------------------------------------- many writers, one lock

TEST(ServiceConcurrency, ParallelWritersAndReadersStayCoherent) {
  YProvService service;

  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("doc" + std::to_string(i));
  Rng seed_rng(51);
  for (const std::string& name : names) {
    ASSERT_EQ(service.handle({"PUT", "/api/v0/documents/" + name, put_body(seed_rng)})
                  .status,
              201);
  }

  constexpr int kOpsPerWriter = 30;
  constexpr int kReadsPerReader = 250;
  std::atomic<int> failures{0};

  // Writers 0/1 own disjoint halves of the namespace; writers 2/3 both
  // roam the full set, so they also race on the same documents.
  const auto writer = [&service, &names, &failures](int id, std::size_t lo,
                                                    std::size_t hi) {
    Rng rng(300 + static_cast<std::uint64_t>(id));
    for (int op = 0; op < kOpsPerWriter; ++op) {
      const std::string& name =
          names[lo + static_cast<std::size_t>(
                         rng.below(static_cast<std::uint32_t>(hi - lo)))];
      if (rng.chance(0.3)) {
        const Response r = service.handle({"DELETE", "/api/v0/documents/" + name, ""});
        if (r.status != 200 && r.status != 404) failures.fetch_add(1);
      } else {
        Rng body_rng(rng.next());
        const Response r =
            service.handle({"PUT", "/api/v0/documents/" + name, put_body(body_rng)});
        if (r.status != 201) failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0, 0, 4);  // disjoint name set A
  threads.emplace_back(writer, 1, 4, 8);  // disjoint name set B
  threads.emplace_back(writer, 2, 0, 8);  // overlaps both
  threads.emplace_back(writer, 3, 0, 8);  // overlaps both
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&service, &names, &failures, t] {
      Rng rng(400 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kReadsPerReader; ++i) {
        Request req;
        switch (rng.below(4)) {
          case 0: req = {"GET", "/api/v0/documents", ""}; break;
          case 1:
            req = {"GET", "/api/v0/documents/" + names[rng.below(8)], ""};
            break;
          case 2:
            req = {"GET", "/api/v0/documents/" + names[rng.below(8)] + "/stats", ""};
            break;
          default:
            req = {"POST", "/api/v0/query", "MATCH (e:Entity) RETURN count(e)"};
            break;
        }
        const Response r = service.handle(req);
        if (r.status != 200 && r.status != 404) failures.fetch_add(1);
        if (i % 16 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiescent coherence: every stored document's subgraph is intact and
  // the documents' node counts sum to the whole graph (no orphans left by
  // a replace or delete).
  std::int64_t document_nodes = 0;
  for (const std::string& name : service.list_documents()) {
    const Response stats =
        service.handle({"GET", "/api/v0/documents/" + name + "/stats", ""});
    ASSERT_EQ(stats.status, 200);
    const auto parsed = json::parse(stats.body);
    ASSERT_TRUE(parsed.ok());
    document_nodes += parsed.value().find("nodes")->as_int();
  }
  EXPECT_EQ(static_cast<std::size_t>(document_nodes), service.graph().node_count());
}

// --------------------------------------------- bulk == sequential, bytewise

// The suite keeps its name from the striped store it was written for. The
// store is one graph now and the constructor's shard count is ignored, so
// a service asked for 4 shards that bulk-ingests must answer every route
// byte for byte like one asked for 1 that takes the documents one PUT at
// a time.
TEST(ShardedDeterminism, ShardedIngestMatchesSingleShardAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    testkit::ProvGenOptions opts;
    opts.max_elements = 8;
    opts.max_relations = 10;
    std::vector<std::pair<std::string, prov::Document>> docs;
    for (int i = 0; i < 8; ++i) {
      docs.emplace_back("det" + std::to_string(i) + "-s" + std::to_string(seed),
                        testkit::gen_prov_document(rng, opts));
    }

    // Reference build: documents applied one at a time.
    YProvService sequential(1);
    for (const auto& [name, doc] : docs) {
      ASSERT_TRUE(sequential.put_document(name, doc).ok());
    }
    // Candidate build: one bulk ingest.
    YProvService bulk(4);
    const auto stats = bulk.put_documents(docs);
    ASSERT_TRUE(stats.ok()) << stats.error().to_string();

    EXPECT_EQ(bulk.graph().node_count(), sequential.graph().node_count());
    EXPECT_EQ(bulk.graph().edge_count(), sequential.graph().edge_count());

    // Both builds ingest the same documents in the same order, so node ids
    // match and every route answers byte for byte.
    std::vector<Request> requests{{"GET", "/api/v0/documents", ""}};
    for (const auto& [name, doc] : docs) {
      const std::string path = "/api/v0/documents/" + name;
      requests.push_back({"GET", path, ""});
      requests.push_back({"GET", path + "/stats", ""});
      for (const prov::Element& e : doc.elements()) {
        requests.push_back({"GET", path + "/elements/" + e.id, ""});
        requests.push_back({"GET", path + "/subgraph/" + e.id, ""});
      }
    }
    for (const char* text : {
             "MATCH (e:Entity) RETURN count(e)",
             "MATCH (a:Activity) RETURN count(a)",
             "MATCH (n:Prov) RETURN count(n)",
             "MATCH (e:Entity) RETURN e",
             "MATCH (a:Prov)-[]->(b:Prov) RETURN a, b",
         }) {
      requests.push_back({"POST", "/api/v0/query", text});
    }
    for (const Request& request : requests) {
      const Response a = bulk.handle(request);
      const Response b = sequential.handle(request);
      EXPECT_EQ(a.status, b.status) << request.method << " " << request.path;
      EXPECT_EQ(a.body, b.body) << request.method << " " << request.path << " " << request.body;
    }
  }
}

TEST(ShardedDeterminism, BulkIngestMatchesSequentialPutsOnSameShardCount) {
  Rng rng(77);
  testkit::ProvGenOptions opts;
  opts.max_elements = 5;
  opts.max_relations = 6;
  std::vector<std::pair<std::string, prov::Document>> docs;
  for (int i = 0; i < 6; ++i) {
    docs.emplace_back("bulk" + std::to_string(i), testkit::gen_prov_document(rng, opts));
  }
  YProvService sequential;
  for (const auto& [name, doc] : docs) {
    ASSERT_TRUE(sequential.put_document(name, doc).ok());
  }
  YProvService bulk;
  ASSERT_TRUE(bulk.put_documents(docs).ok());

  EXPECT_EQ(bulk.list_documents(), sequential.list_documents());
  EXPECT_EQ(bulk.graph().node_count(), sequential.graph().node_count());
  EXPECT_EQ(bulk.graph().edge_count(), sequential.graph().edge_count());
  // Same document order → identical node ids, so even raw element
  // responses match byte for byte.
  for (const auto& [name, doc] : docs) {
    for (const prov::Element& e : doc.elements()) {
      const Request element{"GET", "/api/v0/documents/" + name + "/elements/" + e.id, ""};
      EXPECT_EQ(bulk.handle(element).body, sequential.handle(element).body);
    }
  }
}

}  // namespace
}  // namespace provml::graphstore
