#include <gtest/gtest.h>

#include <filesystem>

#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/prov/prov_json.hpp"

namespace provml::graphstore {
namespace {

namespace fs = std::filesystem;

prov::Document training_doc() {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:dataset");
  doc.add_entity("ex:ckpt");
  doc.add_entity("ex:metrics");
  doc.add_activity("ex:train", {}, "2025-01-01T00:00:00");
  doc.add_agent("ex:alice");
  doc.used("ex:train", "ex:dataset");
  doc.was_generated_by("ex:ckpt", "ex:train");
  doc.was_generated_by("ex:metrics", "ex:train");
  doc.was_associated_with("ex:train", "ex:alice");
  doc.was_derived_from("ex:metrics", "ex:dataset");
  return doc;
}

/// A relation whose activity is never declared: ingest rejects it.
prov::Document dangling_doc() {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:only");
  doc.used("ex:ghost-activity", "ex:only");
  return doc;
}

// ------------------------------------------------------------------- graph

TEST(Graph, AddAndLookupNodes) {
  PropertyGraph g;
  const NodeId a = g.add_node({"Entity"}, json::make_object({{"name", "x"}}));
  const NodeId b = g.add_node({"Activity"});
  EXPECT_NE(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  ASSERT_NE(g.node(a), nullptr);
  EXPECT_EQ(g.node(a)->properties.find("name")->as_string(), "x");
  EXPECT_EQ(g.node(999), nullptr);
}

TEST(Graph, EdgesRequireExistingNodes) {
  PropertyGraph g;
  const NodeId a = g.add_node({"A"});
  EXPECT_FALSE(g.add_edge(a, 999, "rel").ok());
  EXPECT_FALSE(g.add_edge(999, a, "rel").ok());
  const NodeId b = g.add_node({"B"});
  EXPECT_TRUE(g.add_edge(a, b, "rel").ok());
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, IndexFindsByLabelKeyValue) {
  PropertyGraph g;
  const NodeId a = g.add_node({"Run"}, json::make_object({{"epoch", 3}}));
  g.add_node({"Run"}, json::make_object({{"epoch", 4}}));
  g.add_node({"Other"}, json::make_object({{"epoch", 3}}));
  const auto hits = g.find("Run", "epoch", json::Value(3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], a);
  EXPECT_EQ(g.find_one("Run", "epoch", json::Value(3)).value(), a);
  EXPECT_FALSE(g.find_one("Run", "epoch", json::Value(99)).has_value());
}

TEST(Graph, IndexDistinguishesValueTypes) {
  PropertyGraph g;
  g.add_node({"N"}, json::make_object({{"v", 1}}));
  // "1" as a string must not match integer 1.
  EXPECT_TRUE(g.find("N", "v", json::Value("1")).empty());
  EXPECT_EQ(g.find("N", "v", json::Value(1)).size(), 1u);
}

TEST(Graph, SetPropertyReindexes) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"}, json::make_object({{"state", "running"}}));
  g.set_property(a, "state", json::Value("done"));
  EXPECT_TRUE(g.find("N", "state", json::Value("running")).empty());
  EXPECT_EQ(g.find("N", "state", json::Value("done")).size(), 1u);
}

TEST(Graph, RemoveNodeDropsEdgesAndIndex) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"}, json::make_object({{"k", 1}}));
  const NodeId b = g.add_node({"N"});
  (void)g.add_edge(a, b, "r").value();
  (void)g.add_edge(b, a, "r").value();
  ASSERT_TRUE(g.remove_node(a).ok());
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.find("N", "k", json::Value(1)).empty());
  EXPECT_TRUE(g.edges_of(b, Direction::kBoth).empty());
  EXPECT_FALSE(g.remove_node(a).ok());  // already gone
}

TEST(Graph, NeighborsRespectDirectionAndType) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"});
  const NodeId b = g.add_node({"N"});
  const NodeId c = g.add_node({"N"});
  (void)g.add_edge(a, b, "used").value();
  (void)g.add_edge(c, a, "wasGeneratedBy").value();
  EXPECT_EQ(g.neighbors(a, Direction::kOut), (std::vector<NodeId>{b}));
  EXPECT_EQ(g.neighbors(a, Direction::kIn), (std::vector<NodeId>{c}));
  EXPECT_EQ(g.neighbors(a, Direction::kBoth).size(), 2u);
  EXPECT_EQ(g.neighbors(a, Direction::kBoth, "used"), (std::vector<NodeId>{b}));
}

TEST(Graph, PostingsStayAscendingAfterReindexAndRemoval) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"}, json::make_object({{"k", 1}}));
  const NodeId b = g.add_node({"N"}, json::make_object({{"k", 1}}));
  const NodeId c = g.add_node({"N"}, json::make_object({{"k", 1}}));
  const json::Value one(1);
  g.set_property(a, "k", json::Value(2));
  EXPECT_EQ(g.find("N", "k", one), (std::vector<NodeId>{b, c}));
  // Re-indexing the oldest node puts it back in front, not at the end.
  g.set_property(a, "k", one);
  EXPECT_EQ(g.find("N", "k", one), (std::vector<NodeId>{a, b, c}));
  EXPECT_EQ(g.find_one("N", "k", one).value_or(0), a);
  ASSERT_TRUE(g.remove_node(b).ok());
  EXPECT_EQ(g.find("N", "k", one), (std::vector<NodeId>{a, c}));
  EXPECT_EQ(g.nodes_with_label("N"), (std::vector<NodeId>{a, c}));
  EXPECT_EQ(g.count_with_property("N", "k", one), 2u);
  ASSERT_TRUE(g.remove_node(a).ok());
  EXPECT_EQ(g.find_one("N", "k", one).value_or(0), c);
  EXPECT_EQ(g.count_with_label("N"), 1u);
}

TEST(Graph, TypedNeighborsKeepInsertionOrderAfterUnlink) {
  PropertyGraph g;
  const NodeId hub = g.add_node({"N"});
  std::vector<NodeId> t;
  for (int i = 0; i < 5; ++i) t.push_back(g.add_node({"N"}));
  // Edges in an order that is neither id order nor grouped by type.
  (void)g.add_edge(hub, t[4], "used").value();
  (void)g.add_edge(hub, t[1], "wasInformedBy").value();
  (void)g.add_edge(hub, t[2], "used").value();
  (void)g.add_edge(hub, t[0], "used").value();
  (void)g.add_edge(hub, t[3], "wasInformedBy").value();
  (void)g.add_edge(t[3], hub, "used").value();
  (void)g.add_edge(t[1], hub, "used").value();
  ASSERT_TRUE(g.remove_node(t[2]).ok());  // unlinks hub -> t[2] mid-list
  EXPECT_EQ(g.neighbors(hub, Direction::kOut, "used"), (std::vector<NodeId>{t[4], t[0]}));
  EXPECT_EQ(g.neighbors(hub, Direction::kOut, "wasInformedBy"),
            (std::vector<NodeId>{t[1], t[3]}));
  EXPECT_EQ(g.neighbors(hub, Direction::kOut), (std::vector<NodeId>{t[4], t[1], t[0], t[3]}));
  EXPECT_EQ(g.neighbors(hub, Direction::kBoth, "used"),
            (std::vector<NodeId>{t[4], t[0], t[3], t[1]}));
  EXPECT_EQ(g.degree(hub, Direction::kOut), 4u);
  EXPECT_EQ(g.count_with_edge_type("used"), 4u);
}

TEST(Graph, ReachableBfsWithHopLimit) {
  PropertyGraph g;
  // chain a → b → c → d
  const NodeId a = g.add_node({"N"});
  const NodeId b = g.add_node({"N"});
  const NodeId c = g.add_node({"N"});
  const NodeId d = g.add_node({"N"});
  (void)g.add_edge(a, b, "r").value();
  (void)g.add_edge(b, c, "r").value();
  (void)g.add_edge(c, d, "r").value();
  EXPECT_EQ(g.reachable(a, Direction::kOut, 1), (std::vector<NodeId>{b}));
  EXPECT_EQ(g.reachable(a, Direction::kOut, 2).size(), 2u);
  EXPECT_EQ(g.reachable(a, Direction::kOut, 10).size(), 3u);
  EXPECT_TRUE(g.reachable(d, Direction::kOut, 10).empty());
  EXPECT_EQ(g.reachable(d, Direction::kIn, 10).size(), 3u);
}

TEST(Graph, ReachableHandlesCycles) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"});
  const NodeId b = g.add_node({"N"});
  (void)g.add_edge(a, b, "r").value();
  (void)g.add_edge(b, a, "r").value();
  EXPECT_EQ(g.reachable(a, Direction::kOut, 100).size(), 1u);  // terminates
}

TEST(Graph, ShortestPath) {
  PropertyGraph g;
  const NodeId a = g.add_node({"N"});
  const NodeId b = g.add_node({"N"});
  const NodeId c = g.add_node({"N"});
  const NodeId d = g.add_node({"N"});
  (void)g.add_edge(a, b, "r").value();
  (void)g.add_edge(b, d, "r").value();
  (void)g.add_edge(a, c, "r").value();
  (void)g.add_edge(c, d, "r").value();
  const auto path = g.shortest_path(a, d);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), a);
  EXPECT_EQ(path.back(), d);
  EXPECT_EQ(g.shortest_path(a, a), (std::vector<NodeId>{a}));
  const NodeId island = g.add_node({"N"});
  EXPECT_TRUE(g.shortest_path(a, island, Direction::kOut).empty());
}


TEST(GraphDot, RendersProvStyledGraph) {
  PropertyGraph g;
  ASSERT_TRUE(ingest_document(g, training_doc(), "d").ok());
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph provgraph"), std::string::npos);
  EXPECT_NE(dot.find("ex:train"), std::string::npos);
  EXPECT_NE(dot.find("#9FB1FC"), std::string::npos);  // activity blue
  EXPECT_NE(dot.find("#FFFC87"), std::string::npos);  // entity yellow
  EXPECT_NE(dot.find("#FED37F"), std::string::npos);  // agent orange
  EXPECT_NE(dot.find("label=\"used\""), std::string::npos);
}

TEST(GraphDot, UnlabeledNodesFallBackToNumericIds) {
  PropertyGraph g;
  const NodeId a = g.add_node({"X"});
  const NodeId b = g.add_node({"X"});
  (void)g.add_edge(a, b, "rel").value();
  const std::string dot = to_dot(g);
  std::string fallback = "#";
  fallback += std::to_string(a);
  EXPECT_NE(dot.find(fallback), std::string::npos);
  EXPECT_NE(dot.find("label=\"rel\""), std::string::npos);
}

// ------------------------------------------------------------------ ingest

TEST(Ingest, MapsElementsAndRelations) {
  PropertyGraph g;
  const auto stats = ingest_document(g, training_doc(), "doc1");
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().nodes_added, 5u);
  EXPECT_EQ(stats.value().edges_added, 5u);
  EXPECT_EQ(g.nodes_with_label("Entity").size(), 3u);
  EXPECT_EQ(g.nodes_with_label("Activity").size(), 1u);
  EXPECT_EQ(g.nodes_with_label("Agent").size(), 1u);

  const auto train = find_prov_node(g, "doc1", "ex:train");
  ASSERT_TRUE(train.has_value());
  EXPECT_EQ(g.neighbors(*train, Direction::kOut, "used").size(), 1u);
  EXPECT_EQ(g.neighbors(*train, Direction::kIn, "wasGeneratedBy").size(), 2u);
}

TEST(Ingest, ReingestMergesInsteadOfDuplicating) {
  PropertyGraph g;
  (void)ingest_document(g, training_doc(), "doc1").value();
  const auto again = ingest_document(g, training_doc(), "doc1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().nodes_added, 0u);
  EXPECT_EQ(again.value().elements_merged, 5u);
  EXPECT_EQ(g.nodes_with_label("Entity").size(), 3u);
}

TEST(Ingest, DocumentsAreScoped) {
  PropertyGraph g;
  (void)ingest_document(g, training_doc(), "doc1").value();
  (void)ingest_document(g, training_doc(), "doc2").value();
  EXPECT_EQ(g.nodes_with_label("Entity").size(), 6u);
  EXPECT_TRUE(find_prov_node(g, "doc1", "ex:train").has_value());
  EXPECT_TRUE(find_prov_node(g, "doc2", "ex:train").has_value());
  EXPECT_NE(find_prov_node(g, "doc1", "ex:train").value(),
            find_prov_node(g, "doc2", "ex:train").value());
  EXPECT_FALSE(find_prov_node(g, "doc3", "ex:train").has_value());
}

TEST(Ingest, BundleElementsQualified) {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.bundle("ex:run0").add_entity("ex:loss");
  PropertyGraph g;
  const auto stats = ingest_document(g, doc, "d");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(find_prov_node(g, "d", "ex:run0#ex:loss").has_value());
}

TEST(Ingest, DanglingRelationFails) {
  prov::Document doc;
  doc.add_activity("a");
  doc.used("a", "ghost");
  PropertyGraph g;
  EXPECT_FALSE(ingest_document(g, doc, "d").ok());
}

// ----------------------------------------------------------------- service

TEST(Service, PutGetDeleteLifecycle) {
  YProvService service;
  ASSERT_TRUE(service.put_document("exp1", training_doc()).ok());
  EXPECT_EQ(service.list_documents(), (std::vector<std::string>{"exp1"}));
  ASSERT_TRUE(service.get_document("exp1").has_value());
  EXPECT_EQ(service.get_document("exp1")->count(prov::ElementKind::kEntity), 3u);
  EXPECT_TRUE(service.delete_document("exp1"));
  EXPECT_FALSE(service.delete_document("exp1"));
  EXPECT_EQ(service.graph().node_count(), 0u);
}

TEST(Service, InvalidNameRejected) {
  YProvService service;
  EXPECT_FALSE(service.put_document("", training_doc()).ok());
  EXPECT_FALSE(service.put_document("a/b", training_doc()).ok());
}

TEST(Service, ReplaceRebuildsGraph) {
  YProvService service;
  ASSERT_TRUE(service.put_document("exp", training_doc()).ok());
  const std::size_t before = service.graph().node_count();
  prov::Document tiny;
  tiny.add_entity("only");
  ASSERT_TRUE(service.put_document("exp", tiny).ok());
  EXPECT_EQ(service.graph().node_count(), 1u);
  EXPECT_LT(service.graph().node_count(), before);
}

TEST(Service, ReplaceRejectedByIngestKeepsThePreviousDocument) {
  YProvService service;
  const std::string path = "/api/v0/documents/exp";
  ASSERT_EQ(service.handle({"PUT", path, prov::to_prov_json_string(training_doc())}).status,
            201);
  const std::string before = service.handle({"GET", path, ""}).body;
  const std::size_t nodes = service.graph().node_count();
  EXPECT_EQ(service.handle({"PUT", path, prov::to_prov_json_string(dangling_doc())}).status,
            400);
  const Response after = service.handle({"GET", path, ""});
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, before);
  EXPECT_EQ(service.graph().node_count(), nodes);
  EXPECT_TRUE(find_prov_node(service.graph(), "exp", "ex:train").has_value());
  EXPECT_FALSE(find_prov_node(service.graph(), "exp", "ex:only").has_value());
}

TEST(Service, RestRoutes) {
  YProvService service;

  // Upload via PUT.
  const std::string body = prov::to_prov_json_string(training_doc(), false);
  Response r = service.handle({"PUT", "/api/v0/documents/exp1", body});
  EXPECT_EQ(r.status, 201);

  // List.
  r = service.handle({"GET", "/api/v0/documents", ""});
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("exp1"), std::string::npos);

  // Fetch document.
  r = service.handle({"GET", "/api/v0/documents/exp1", ""});
  EXPECT_EQ(r.status, 200);
  const auto doc = prov::from_prov_json(json::parse(r.body).take());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().count(prov::ElementKind::kEntity), 3u);

  // Element view.
  r = service.handle({"GET", "/api/v0/documents/exp1/elements/ex:train", ""});
  EXPECT_EQ(r.status, 200);
  const json::Value v = json::parse(r.body).take();
  EXPECT_EQ(v.find("outgoing")->as_array().size(), 2u);  // used + associated
  EXPECT_EQ(v.find("incoming")->as_array().size(), 2u);  // two generations

  // Stats.
  r = service.handle({"GET", "/api/v0/documents/exp1/stats", ""});
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(json::parse(r.body).take().find("nodes")->as_int(), 5);

  // Delete.
  r = service.handle({"DELETE", "/api/v0/documents/exp1", ""});
  EXPECT_EQ(r.status, 200);
  r = service.handle({"GET", "/api/v0/documents/exp1", ""});
  EXPECT_EQ(r.status, 404);
}

TEST(Service, RestErrors) {
  YProvService service;
  EXPECT_EQ(service.handle({"GET", "/api/v1/other", ""}).status, 404);
  EXPECT_EQ(service.handle({"POST", "/api/v0/documents", ""}).status, 405);
  EXPECT_EQ(service.handle({"PUT", "/api/v0/documents/x", "not json"}).status, 400);
  EXPECT_EQ(service.handle({"PUT", "/api/v0/documents/x", R"({"badBucket":{}})"}).status,
            400);
  EXPECT_EQ(service.handle({"GET", "/api/v0/documents/none", ""}).status, 404);
  EXPECT_EQ(service.handle({"DELETE", "/api/v0/documents/none", ""}).status, 404);
  EXPECT_EQ(
      service.handle({"GET", "/api/v0/documents/none/elements/ex:train", ""}).status, 404);
}


TEST(Service, MethodNotAllowedNamesAllowedMethods) {
  YProvService service;
  ASSERT_TRUE(service.put_document("exp1", training_doc()).ok());

  Response r = service.handle({"PATCH", "/api/v0/documents/exp1", ""});
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(json::parse(r.body).take().find("allow")->as_string(), "GET, PUT, DELETE");

  r = service.handle({"POST", "/api/v0/documents", ""});
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(json::parse(r.body).take().find("allow")->as_string(), "GET");

  r = service.handle({"GET", "/api/v0/query", ""});
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(json::parse(r.body).take().find("allow")->as_string(), "POST");

  r = service.handle({"DELETE", "/api/v0/documents/exp1/stats", ""});
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(json::parse(r.body).take().find("allow")->as_string(), "GET");
}

TEST(Service, MalformedPutBodiesReturn400WithErrorBody) {
  YProvService service;
  const char* bodies[] = {
      "not json at all",
      "[1, 2, 3]",
      R"({"entity": 5})",
      R"({"entity": {"ex:e": []}})",
      R"({"prefix":)",  // truncated
      "",
  };
  for (const char* body : bodies) {
    const Response r = service.handle({"PUT", "/api/v0/documents/x", body});
    EXPECT_EQ(r.status, 400) << "body: " << body;
    ASSERT_FALSE(r.body.empty()) << "body: " << body;
    const auto parsed = json::parse(r.body);
    ASSERT_TRUE(parsed.ok()) << "body: " << body;
    EXPECT_NE(parsed.value().find("error"), nullptr) << "body: " << body;
  }
  EXPECT_TRUE(service.list_documents().empty());
}

TEST(Service, QueryRoute) {
  YProvService service;
  ASSERT_TRUE(service.put_document("exp1", training_doc()).ok());
  Response r = service.handle(
      {"POST", "/api/v0/query",
       R"(MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN e)"});
  EXPECT_EQ(r.status, 200);
  const json::Value body = json::parse(r.body).take();
  ASSERT_TRUE(body.find("rows")->is_array());
  EXPECT_EQ(body.find("rows")->as_array().size(), 2u);

  EXPECT_EQ(service.handle({"GET", "/api/v0/query", "MATCH (n) RETURN n"}).status, 405);
  EXPECT_EQ(service.handle({"POST", "/api/v0/query", "MATCH bogus"}).status, 400);
}


TEST(Service, SubgraphRoute) {
  YProvService service;
  ASSERT_TRUE(service.put_document("exp1", training_doc()).ok());
  const Response r =
      service.handle({"GET", "/api/v0/documents/exp1/subgraph/ex:ckpt", ""});
  EXPECT_EQ(r.status, 200);
  const json::Value body = json::parse(r.body).take();
  EXPECT_EQ(body.find("center")->as_string(), "ex:ckpt");
  // 2 hops from the checkpoint reaches everything in this small graph.
  EXPECT_EQ(body.find("nodes")->as_array().size(), 5u);
  EXPECT_EQ(
      service.handle({"GET", "/api/v0/documents/exp1/subgraph/ex:nope", ""}).status,
      404);
}

TEST(Service, SaveLoadRoundTrip) {
  const fs::path dir = fs::temp_directory_path() / "provml_service_rt";
  fs::remove_all(dir);
  {
    YProvService service;
    ASSERT_TRUE(service.put_document("exp1", training_doc()).ok());
    prov::Document other;
    other.add_entity("standalone");
    ASSERT_TRUE(service.put_document("exp2", other).ok());
    ASSERT_TRUE(service.save(dir.string()).ok());
  }
  auto loaded = YProvService::load(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().list_documents().size(), 2u);
  ASSERT_TRUE(loaded.value().get_document("exp1").has_value());
  EXPECT_EQ(loaded.value().get_document("exp1")->count(prov::ElementKind::kEntity), 3u);
  EXPECT_GT(loaded.value().graph().node_count(), 0u);
  fs::remove_all(dir);
}

TEST(Service, LoadMissingDirectoryFails) {
  EXPECT_FALSE(YProvService::load("/nonexistent/provml_service").ok());
}

// ------------------------------------------------------ ids and bulk ingest

TEST(Graph, IdsAreADenseSequence) {
  PropertyGraph g;
  EXPECT_EQ(g.add_node({"A"}), 1u);
  EXPECT_EQ(g.add_node({"A"}), 2u);
  EXPECT_EQ(g.add_node({"B"}), 3u);
  EXPECT_EQ(g.node_ids(), (std::vector<NodeId>{1, 2, 3}));
}

TEST(Ingest, RemoveDocumentOnlyTouchesItsOwnSubgraph) {
  PropertyGraph g;
  ASSERT_TRUE(ingest_document(g, training_doc(), "keep").ok());
  ASSERT_TRUE(ingest_document(g, training_doc(), "drop").ok());
  const std::size_t keep_nodes = g.node_count() / 2;
  const std::size_t removed = remove_document(g, "drop");
  EXPECT_EQ(removed, keep_nodes);
  EXPECT_EQ(g.node_count(), keep_nodes);
  EXPECT_TRUE(find_prov_node(g, "keep", "ex:train").has_value());
  EXPECT_FALSE(find_prov_node(g, "drop", "ex:train").has_value());
  EXPECT_EQ(remove_document(g, "missing"), 0u);
}

TEST(Service, BulkIngestRollsBackAtomicallyOnBadDocument) {
  const prov::Document dangling = dangling_doc();

  YProvService service;
  ASSERT_TRUE(service.put_document("pre", training_doc()).ok());
  const std::size_t nodes_before = service.graph().node_count();

  std::vector<std::pair<std::string, prov::Document>> batch;
  batch.emplace_back("good1", training_doc());
  batch.emplace_back("bad", dangling);
  batch.emplace_back("good2", training_doc());
  EXPECT_FALSE(service.put_documents(batch).ok());

  // All-or-nothing: no batch document landed, the pre-existing one intact.
  EXPECT_EQ(service.document_count(), 1u);
  EXPECT_EQ(service.list_documents(), (std::vector<std::string>{"pre"}));
  EXPECT_EQ(service.graph().node_count(), nodes_before);
}

TEST(Service, BulkRollbackRestoresARepeatedNameToItsPreBatchBytes) {
  YProvService service;
  ASSERT_TRUE(service.put_document("x", training_doc()).ok());
  const std::string before = service.handle({"GET", "/api/v0/documents/x", ""}).body;
  prov::Document v2;
  v2.add_entity("v2");
  prov::Document v3;
  v3.add_entity("v3");
  std::vector<std::pair<std::string, prov::Document>> batch;
  batch.emplace_back("x", v2);
  batch.emplace_back("x", v3);
  batch.emplace_back("y", dangling_doc());
  EXPECT_FALSE(service.put_documents(batch).ok());
  EXPECT_EQ(service.handle({"GET", "/api/v0/documents/x", ""}).body, before);
  EXPECT_TRUE(find_prov_node(service.graph(), "x", "ex:train").has_value());
  EXPECT_FALSE(find_prov_node(service.graph(), "x", "v2").has_value());
}

TEST(Service, BulkIngestReportsAggregateStats) {
  YProvService service;
  std::vector<std::pair<std::string, prov::Document>> batch;
  batch.emplace_back("s1", training_doc());
  batch.emplace_back("s2", training_doc());
  const auto stats = service.put_documents(batch);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().nodes_added, service.graph().node_count());
  EXPECT_EQ(stats.value().edges_added, service.graph().edge_count());
  EXPECT_EQ(service.document_count(), 2u);
}

}  // namespace
}  // namespace provml::graphstore
