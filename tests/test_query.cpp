#include <gtest/gtest.h>

#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/prov/model.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::graphstore {
namespace {

/// run ←used— dataset; ckpt —wasGeneratedBy→ run; metrics —wasGeneratedBy→ run
PropertyGraph training_graph() {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:dataset", {{"provml:name", "modis"}});
  doc.add_entity("ex:ckpt", {{"provml:name", "checkpoint"}});
  doc.add_entity("ex:metrics", {{"provml:name", "metrics"}});
  doc.add_activity("ex:run", {{"provml:run_name", "run_0"}});
  doc.add_agent("ex:alice");
  doc.used("ex:run", "ex:dataset");
  doc.was_generated_by("ex:ckpt", "ex:run");
  doc.was_generated_by("ex:metrics", "ex:run");
  doc.was_associated_with("ex:run", "ex:alice");
  PropertyGraph g;
  EXPECT_TRUE(ingest_document(g, doc, "d").ok());
  return g;
}

// ------------------------------------------------------------------ parser

TEST(QueryParser, ParsesFullQuery) {
  const auto q = parse_query(
      R"(MATCH (a:Activity {prov_id: "ex:run"})<-[:wasGeneratedBy]-(e:Entity) RETURN e)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().nodes.size(), 2u);
  ASSERT_EQ(q.value().edges.size(), 1u);
  EXPECT_EQ(q.value().nodes[0].var, "a");
  EXPECT_EQ(q.value().nodes[0].labels, (std::vector<std::string>{"Activity"}));
  EXPECT_EQ(q.value().nodes[0].properties.find("prov_id")->as_string(), "ex:run");
  EXPECT_EQ(q.value().edges[0].type, "wasGeneratedBy");
  EXPECT_EQ(q.value().edges[0].direction, Direction::kIn);
  ASSERT_EQ(q.value().returns.size(), 1u);
  EXPECT_EQ(q.value().returns[0].agg, ReturnItem::Agg::kNone);
  EXPECT_EQ(q.value().returns[0].var, "e");
  EXPECT_FALSE(q.value().edges[0].variable);
}

TEST(QueryParser, LiteralTypes) {
  const auto q = parse_query(
      R"(MATCH (n {s: "x", i: 42, f: 2.5, neg: -3, b: true}) RETURN n)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  const json::Object& props = q.value().nodes[0].properties;
  EXPECT_EQ(props.find("s")->as_string(), "x");
  EXPECT_EQ(props.find("i")->as_int(), 42);
  EXPECT_DOUBLE_EQ(props.find("f")->as_double(), 2.5);
  EXPECT_EQ(props.find("neg")->as_int(), -3);
  EXPECT_EQ(props.find("b")->as_bool(), true);
}

TEST(QueryParser, EdgeDirections) {
  EXPECT_EQ(parse_query("MATCH (a)-[:r]->(b) RETURN a").value().edges[0].direction,
            Direction::kOut);
  EXPECT_EQ(parse_query("MATCH (a)<-[:r]-(b) RETURN a").value().edges[0].direction,
            Direction::kIn);
  EXPECT_EQ(parse_query("MATCH (a)-[:r]-(b) RETURN a").value().edges[0].direction,
            Direction::kBoth);
  EXPECT_EQ(parse_query("MATCH (a)--(b) RETURN a").value().edges[0].type, "");
}

TEST(QueryParser, MultiHopPath) {
  const auto q =
      parse_query("MATCH (a:Entity)-[:wasGeneratedBy]->(b)<-[:used]-(c) RETURN a, c");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().nodes.size(), 3u);
  EXPECT_EQ(q.value().edges.size(), 2u);
  EXPECT_EQ(q.value().returns.size(), 2u);
}

TEST(QueryParser, QualifiedPropertyKeys) {
  const auto q = parse_query(R"(MATCH (n {provml:name: "modis"}) RETURN n)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_TRUE(q.value().nodes[0].properties.contains("provml:name"));
}

TEST(QueryParser, RejectsMalformed) {
  EXPECT_FALSE(parse_query("").ok());
  EXPECT_FALSE(parse_query("MATCH RETURN a").ok());
  EXPECT_FALSE(parse_query("MATCH (a RETURN a").ok());
  EXPECT_FALSE(parse_query("MATCH (a) RETURN").ok());
  EXPECT_FALSE(parse_query("MATCH (a)<-[:r]->(b) RETURN a").ok());  // double arrow
  EXPECT_FALSE(parse_query("MATCH (a) RETURN ghost").ok());          // unbound
  EXPECT_FALSE(parse_query("MATCH (a {k: }) RETURN a").ok());        // bad literal
  EXPECT_FALSE(parse_query("MATCH (a) RETURN a extra").ok());        // trailing
  EXPECT_FALSE(parse_query(R"(MATCH (a {k: "unterminated}) RETURN a)").ok());
}

// ------------------------------------------------------------------ matcher

TEST(QueryRun, FindsGeneratedEntities) {
  const PropertyGraph g = training_graph();
  const auto rows = run_query(
      g, R"(MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity {prov_id: "ex:run"}) RETURN e)");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  EXPECT_EQ(rows.value().size(), 2u);  // ckpt + metrics
}

TEST(QueryRun, DirectionMatters) {
  const PropertyGraph g = training_graph();
  // Reversed arrow: nothing is generated *by* an entity.
  const auto rows = run_query(
      g, R"(MATCH (e:Entity)<-[:wasGeneratedBy]-(a:Activity {prov_id: "ex:run"}) RETURN e)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
  // Undirected matches regardless.
  const auto undirected = run_query(
      g, R"(MATCH (e:Entity)-[:wasGeneratedBy]-(a:Activity {prov_id: "ex:run"}) RETURN e)");
  EXPECT_EQ(undirected.value().size(), 2u);
}

TEST(QueryRun, PropertyEqualityFilters) {
  const PropertyGraph g = training_graph();
  const auto rows =
      run_query(g, R"(MATCH (e:Entity {provml:name: "checkpoint"}) RETURN e)");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  const Node* n = g.node(rows.value()[0].at("e"));
  EXPECT_EQ(n->properties.find("prov_id")->as_string(), "ex:ckpt");
}

TEST(QueryRun, TwoHopTraversal) {
  const PropertyGraph g = training_graph();
  // What did the activity that generated the checkpoint use?
  const auto rows = run_query(g,
                              R"(MATCH (c:Entity {provml:name: "checkpoint"})
                                 -[:wasGeneratedBy]->(r:Activity)-[:used]->(d:Entity)
                                 RETURN d)");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(g.node(rows.value()[0].at("d"))->properties.find("prov_id")->as_string(),
            "ex:dataset");
}

TEST(QueryRun, MultipleReturnsFormRows) {
  const PropertyGraph g = training_graph();
  const auto rows =
      run_query(g, "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN e, a");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  for (const Row& row : rows.value()) {
    EXPECT_EQ(row.size(), 2u);
    EXPECT_TRUE(row.count("e"));
    EXPECT_TRUE(row.count("a"));
  }
}

TEST(QueryRun, AnyEdgeTypeWildcard) {
  const PropertyGraph g = training_graph();
  const auto rows =
      run_query(g, R"(MATCH (a:Activity {prov_id: "ex:run"})--(x) RETURN x)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 4u);  // dataset, ckpt, metrics, alice
}

TEST(QueryRun, NoLabelScansAllNodes) {
  const PropertyGraph g = training_graph();
  const auto rows = run_query(g, "MATCH (n) RETURN n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), g.node_count());
}

TEST(QueryRun, DuplicateRowsCollapsed) {
  const PropertyGraph g = training_graph();
  // Both generated entities reach the same activity; returning only the
  // activity must yield a single row.
  const auto rows =
      run_query(g, "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN a");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
}

TEST(QueryRun, EmptyGraphYieldsNoRows) {
  PropertyGraph g;
  const auto rows = run_query(g, "MATCH (n:Entity) RETURN n");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST(QueryRun, ParseErrorsPropagate) {
  PropertyGraph g;
  EXPECT_FALSE(run_query(g, "MATCH oops").ok());
}


// ------------------------------------------------------------------- WHERE

TEST(QueryWhere, ParsesConditions) {
  const auto q = parse_query(
      R"(MATCH (n:Run) WHERE n.loss < 0.5 AND n.devices >= 32 RETURN n)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().conditions.size(), 2u);
  EXPECT_EQ(q.value().conditions[0].var, "n");
  EXPECT_EQ(q.value().conditions[0].key, "loss");
  EXPECT_EQ(q.value().conditions[0].op, Condition::Op::kLt);
  EXPECT_DOUBLE_EQ(q.value().conditions[0].literal.as_double(), 0.5);
  EXPECT_EQ(q.value().conditions[1].op, Condition::Op::kGe);
}

TEST(QueryWhere, AllOperatorsParse) {
  for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
    const std::string text = std::string("MATCH (n) WHERE n.v ") + op + " 1 RETURN n";
    EXPECT_TRUE(parse_query(text).ok()) << op;
  }
}

TEST(QueryWhere, RejectsMalformedConditions) {
  EXPECT_FALSE(parse_query("MATCH (n) WHERE RETURN n").ok());
  EXPECT_FALSE(parse_query("MATCH (n) WHERE n RETURN n").ok());
  EXPECT_FALSE(parse_query("MATCH (n) WHERE n.v ~ 1 RETURN n").ok());
  EXPECT_FALSE(parse_query("MATCH (n) WHERE ghost.v = 1 RETURN n").ok());  // unbound
  EXPECT_FALSE(parse_query("MATCH (n) WHERE n.v ! 1 RETURN n").ok());
}

TEST(QueryWhere, FiltersNumericProperties) {
  PropertyGraph g;
  for (int devices : {8, 32, 128}) {
    g.add_node({"Run"}, json::make_object(
                            {{"devices", devices}, {"loss", 1.0 / devices}}));
  }
  const auto rows =
      run_query(g, "MATCH (n:Run) WHERE n.devices > 8 RETURN n");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  EXPECT_EQ(rows.value().size(), 2u);

  const auto conj = run_query(
      g, "MATCH (n:Run) WHERE n.devices > 8 AND n.loss < 0.01 RETURN n");
  ASSERT_TRUE(conj.ok());
  EXPECT_EQ(conj.value().size(), 1u);  // only the 128-device run
}

TEST(QueryWhere, StringAndMissingProperties) {
  PropertyGraph g;
  g.add_node({"N"}, json::make_object({{"name", "alpha"}}));
  g.add_node({"N"}, json::make_object({{"name", "beta"}}));
  g.add_node({"N"});  // no name property
  const auto eq = run_query(g, R"(MATCH (n:N) WHERE n.name = "alpha" RETURN n)");
  EXPECT_EQ(eq.value().size(), 1u);
  const auto ne = run_query(g, R"(MATCH (n:N) WHERE n.name != "alpha" RETURN n)");
  EXPECT_EQ(ne.value().size(), 1u);  // missing property never matches
  const auto lt = run_query(g, R"(MATCH (n:N) WHERE n.name < "b" RETURN n)");
  EXPECT_EQ(lt.value().size(), 1u);
}

TEST(QueryWhere, CrossTypeComparisonIsFalse) {
  PropertyGraph g;
  g.add_node({"N"}, json::make_object({{"v", "5"}}));  // string "5"
  EXPECT_TRUE(run_query(g, "MATCH (n:N) WHERE n.v > 1 RETURN n").value().empty());
  EXPECT_TRUE(run_query(g, "MATCH (n:N) WHERE n.v = 5 RETURN n").value().empty());
  EXPECT_EQ(run_query(g, "MATCH (n:N) WHERE n.v != 5 RETURN n").value().size(), 1u);
}

TEST(QueryWhere, FilterOnMidPathVariable) {
  const PropertyGraph g = training_graph();
  // Filter on a variable that is not returned.
  const auto rows = run_query(
      g,
      R"(MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity)
         WHERE a.provml:run_name = "run_0" RETURN e)");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  EXPECT_EQ(rows.value().size(), 2u);
  const auto none = run_query(
      g,
      R"(MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity)
         WHERE a.provml:run_name = "other" RETURN e)");
  EXPECT_TRUE(none.value().empty());
}

// ------------------------------------------------------ extended grammar

TEST(QueryParser, VariableLengthForms) {
  struct Case {
    const char* text;
    std::size_t min;
    std::size_t max;
  };
  const Case cases[] = {
      {"MATCH (a)-[:r*]->(b) RETURN b", 1, kUnboundedHops},
      {"MATCH (a)-[:r*2]->(b) RETURN b", 2, 2},
      {"MATCH (a)-[:r*1..3]->(b) RETURN b", 1, 3},
      {"MATCH (a)-[:r*..4]->(b) RETURN b", 1, 4},
      {"MATCH (a)-[:r*1..]->(b) RETURN b", 1, kUnboundedHops},
      {"MATCH (a)<-[*2..3]-(b) RETURN b", 2, 3},
  };
  for (const Case& c : cases) {
    const auto q = parse_query(c.text);
    ASSERT_TRUE(q.ok()) << c.text << ": " << q.error().to_string();
    ASSERT_EQ(q.value().edges.size(), 1u) << c.text;
    EXPECT_TRUE(q.value().edges[0].variable) << c.text;
    EXPECT_EQ(q.value().edges[0].min_hops, c.min) << c.text;
    EXPECT_EQ(q.value().edges[0].max_hops, c.max) << c.text;
    EXPECT_TRUE(q.value().has_variable_length()) << c.text;
  }
}

TEST(QueryParser, RejectsBadVariableLengthBounds) {
  EXPECT_FALSE(parse_query("MATCH (a)-[:r*0]->(b) RETURN b").ok());     // min < 1
  EXPECT_FALSE(parse_query("MATCH (a)-[:r*0..2]->(b) RETURN b").ok());
  EXPECT_FALSE(parse_query("MATCH (a)-[:r*3..2]->(b) RETURN b").ok());  // max < min
  EXPECT_FALSE(parse_query("MATCH (a)-[:r*2..]->(b) RETURN b").ok());   // open needs min<=1
}

TEST(QueryParser, AggregateReturnItems) {
  const auto q = parse_query(
      "MATCH (a:Run)-[:used]->(d) RETURN a, count(d), min(a.loss), avg(a.loss)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().returns.size(), 4u);
  EXPECT_EQ(q.value().returns[0].agg, ReturnItem::Agg::kNone);
  EXPECT_EQ(q.value().returns[1].agg, ReturnItem::Agg::kCount);
  EXPECT_EQ(q.value().returns[1].var, "d");
  EXPECT_EQ(q.value().returns[2].agg, ReturnItem::Agg::kMin);
  EXPECT_EQ(q.value().returns[2].key, "loss");
  EXPECT_EQ(q.value().returns[3].agg, ReturnItem::Agg::kAvg);
  EXPECT_EQ(q.value().returns[3].display(), "avg(a.loss)");
  EXPECT_TRUE(q.value().has_aggregate());
}

TEST(QueryParser, AggregateNamesAreOrdinaryVariables) {
  // count/min/max/avg only aggregate when followed by '('.
  const auto q = parse_query("MATCH (count:Run) RETURN count");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_EQ(q.value().returns[0].agg, ReturnItem::Agg::kNone);
  EXPECT_EQ(q.value().returns[0].var, "count");
}

TEST(QueryParser, RejectsMalformedAggregates) {
  EXPECT_FALSE(parse_query("MATCH (a) RETURN min(a)").ok());       // needs var.key
  EXPECT_FALSE(parse_query("MATCH (a) RETURN count(a.x)").ok());   // count takes var
  EXPECT_FALSE(parse_query("MATCH (a) RETURN count(ghost)").ok()); // unbound
  EXPECT_FALSE(parse_query("MATCH (a) RETURN count(a").ok());      // unclosed
}

TEST(QueryParser, OrderBySkipLimit) {
  const auto q = parse_query(
      "MATCH (r:Run) RETURN r ORDER BY r.loss DESC, r ASC SKIP 2 LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().order_by.size(), 2u);
  EXPECT_EQ(q.value().order_by[0].ref.var, "r");
  EXPECT_EQ(q.value().order_by[0].property, "loss");
  EXPECT_TRUE(q.value().order_by[0].descending);
  EXPECT_EQ(q.value().order_by[1].property, "");
  EXPECT_FALSE(q.value().order_by[1].descending);
  EXPECT_EQ(q.value().skip, 2u);
  EXPECT_EQ(q.value().limit, 10u);
}

TEST(QueryParser, OrderByAggregateMustBeReturned) {
  EXPECT_TRUE(
      parse_query("MATCH (r:Run) RETURN r, count(r) ORDER BY count(r)").ok());
  EXPECT_FALSE(parse_query("MATCH (r:Run) RETURN r ORDER BY count(r)").ok());
  EXPECT_FALSE(parse_query("MATCH (r:Run)-->(d) RETURN r ORDER BY d.x").ok());
  EXPECT_FALSE(parse_query("MATCH (r:Run) RETURN r SKIP -1").ok());
  EXPECT_FALSE(parse_query("MATCH (r:Run) RETURN r LIMIT x").ok());
}

// ------------------------------------------------------------------ oracle
//
// The brute-force evaluator is the semantic reference for every construct;
// these tests pin its behavior directly (the planner is asserted equal to
// it elsewhere).

TEST(QueryOracle, VariableLengthReachability) {
  const PropertyGraph g = training_graph();
  // Everything within two hops of the dataset, any direction, any type.
  const auto q = parse_query(
      R"(MATCH (d:Entity {prov_id: "ex:dataset"})-[*1..2]-(x) RETURN x)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok()) << rs.error().to_string();
  // 1 hop: run. 2 hops: ckpt, metrics, alice.
  EXPECT_EQ(rs.value().rows.size(), 4u);
}

TEST(QueryOracle, VariableLengthMinimumExcludesShortPaths) {
  const PropertyGraph g = training_graph();
  const auto q = parse_query(
      R"(MATCH (d:Entity {prov_id: "ex:dataset"})-[*2..2]-(x) RETURN x)");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 3u);  // ckpt, metrics, alice — not run
}

TEST(QueryOracle, VariableLengthRequiresSimplePaths) {
  // a -> b -> a cycle: *2..2 from a must not revisit a through b.
  PropertyGraph g;
  const NodeId a = g.add_node({"N"});
  const NodeId b = g.add_node({"N"});
  ASSERT_TRUE(g.add_edge(a, b, "r").ok());
  ASSERT_TRUE(g.add_edge(b, a, "r").ok());
  const auto q = parse_query("MATCH (x:N)-[:r*2..2]->(y) RETURN x, y");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST(QueryOracle, CountsDistinctBindings) {
  const PropertyGraph g = training_graph();
  const auto q = parse_query(
      "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN count(e)");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok()) << rs.error().to_string();
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), 2);  // ckpt + metrics
  ASSERT_EQ(rs.value().columns.size(), 1u);
  EXPECT_EQ(rs.value().columns[0].name, "count(e)");
  EXPECT_FALSE(rs.value().columns[0].is_node);
}

TEST(QueryOracle, CountOverEmptyMatchIsZero) {
  PropertyGraph g;
  const auto q = parse_query("MATCH (n:Ghost) RETURN count(n)");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), 0);
}

TEST(QueryOracle, GroupedAggregates) {
  PropertyGraph g;
  const NodeId r1 = g.add_node({"Run"}, json::make_object({{"name", "r1"}}));
  const NodeId r2 = g.add_node({"Run"}, json::make_object({{"name", "r2"}}));
  for (int i = 0; i < 3; ++i) {
    const NodeId m = g.add_node({"Metric"}, json::make_object({{"v", i + 1}}));
    ASSERT_TRUE(g.add_edge(m, r1, "of").ok());
    if (i < 2) {
      const NodeId m2 = g.add_node({"Metric"}, json::make_object({{"v", 10 * (i + 1)}}));
      ASSERT_TRUE(g.add_edge(m2, r2, "of").ok());
    }
  }
  const auto q = parse_query(
      "MATCH (m:Metric)-[:of]->(r:Run) RETURN r, count(m), min(m.v), max(m.v), avg(m.v)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok()) << rs.error().to_string();
  ASSERT_EQ(rs.value().rows.size(), 2u);  // one group per run, ascending NodeId
  EXPECT_EQ(rs.value().rows[0][0].as_int(), static_cast<std::int64_t>(r1));
  EXPECT_EQ(rs.value().rows[0][1].as_int(), 3);
  EXPECT_EQ(rs.value().rows[0][2].as_int(), 1);
  EXPECT_EQ(rs.value().rows[0][3].as_int(), 3);
  EXPECT_DOUBLE_EQ(rs.value().rows[0][4].as_double(), 2.0);
  EXPECT_EQ(rs.value().rows[1][0].as_int(), static_cast<std::int64_t>(r2));
  EXPECT_EQ(rs.value().rows[1][1].as_int(), 2);
  EXPECT_DOUBLE_EQ(rs.value().rows[1][4].as_double(), 15.0);
}

TEST(QueryOracle, MinMaxSkipMissingAndAvgSkipsNonNumeric) {
  PropertyGraph g;
  g.add_node({"N"}, json::make_object({{"v", 5}}));
  g.add_node({"N"}, json::make_object({{"v", "text"}}));
  g.add_node({"N"});  // no v at all
  const auto q = parse_query("MATCH (n:N) RETURN min(n.v), max(n.v), avg(n.v)");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), 5);           // number < string
  EXPECT_EQ(rs.value().rows[0][1].as_string(), "text");   // string is max
  EXPECT_DOUBLE_EQ(rs.value().rows[0][2].as_double(), 5.0);
}

TEST(QueryOracle, AggregateOverNoValuesIsNull) {
  PropertyGraph g;
  g.add_node({"N"});
  const auto q = parse_query("MATCH (n:N) RETURN count(n), min(n.v), avg(n.v)");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), 1);
  EXPECT_TRUE(rs.value().rows[0][1].is_null());
  EXPECT_TRUE(rs.value().rows[0][2].is_null());
}

TEST(QueryOracle, OrderByPropertyWithPagination) {
  PropertyGraph g;
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(
        g.add_node({"Run"}, json::make_object({{"loss", 1.0 - 0.1 * i}})));
  }
  const auto q = parse_query(
      "MATCH (r:Run) RETURN r ORDER BY r.loss DESC SKIP 1 LIMIT 2");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 2u);
  // loss descends with ascending i, so DESC order is insertion order.
  EXPECT_EQ(rs.value().rows[0][0].as_int(), static_cast<std::int64_t>(ids[1]));
  EXPECT_EQ(rs.value().rows[1][0].as_int(), static_cast<std::int64_t>(ids[2]));
}

TEST(QueryOracle, OrderByTiesKeepBaseOrder) {
  PropertyGraph g;
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(g.add_node({"N"}, json::make_object({{"v", 7}})));
  }
  const auto q = parse_query("MATCH (n:N) RETURN n ORDER BY n.v");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 4u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rs.value().rows[i][0].as_int(), static_cast<std::int64_t>(ids[i]));
  }
}

TEST(QueryOracle, MissingOrderPropertySortsFirst) {
  PropertyGraph g;
  const NodeId with = g.add_node({"N"}, json::make_object({{"v", 1}}));
  const NodeId without = g.add_node({"N"});
  const auto q = parse_query("MATCH (n:N) RETURN n ORDER BY n.v");
  ASSERT_TRUE(q.ok());
  const auto rs = execute_query_brute_force(g, q.value());
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 2u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), static_cast<std::int64_t>(without));
  EXPECT_EQ(rs.value().rows[1][0].as_int(), static_cast<std::int64_t>(with));
}

TEST(QueryOracle, BindingApiRejectsAggregates) {
  const PropertyGraph g = training_graph();
  const auto q = parse_query("MATCH (e:Entity) RETURN count(e)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(run_query(g, q.value()).ok());
  EXPECT_FALSE(run_query_brute_force(g, q.value()).ok());
}

TEST(QueryOracle, BindingApiHonorsLimit) {
  const PropertyGraph g = training_graph();
  const auto rows = run_query(g, "MATCH (n) RETURN n LIMIT 2");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  EXPECT_EQ(rows.value().size(), 2u);
}

// --------------------------------------------------- plan shape / costing
//
// Regression pins for the cost-based planner: these lock in *decisions*
// (anchor, orientation) and the statistics they were derived from, so a
// cost-model change that flips a plan shows up as a test diff, not as a
// silent perf cliff.

/// 1 source fanning out to `width` sinks through `width` typed edges,
/// plus `extra` isolated Sink nodes to skew the posting lists.
PropertyGraph fan_graph(int width, int extra) {
  PropertyGraph g;
  const NodeId src = g.add_node({"Source"});
  for (int i = 0; i < width; ++i) {
    const NodeId sink = g.add_node({"Sink"});
    EXPECT_TRUE(g.add_edge(src, sink, "feeds").ok());
  }
  for (int i = 0; i < extra; ++i) g.add_node({"Sink"});
  return g;
}

TEST(QueryCost, EstimatesUseEdgeTypeStatistics) {
  const PropertyGraph g = fan_graph(/*width=*/8, /*extra=*/11);
  // 20 nodes, 8 "feeds" edges. Forward from Source: 1 anchor candidate,
  // fanout 8/20, Sink selectivity 19/20 -> ~0.38 rows. Backward from Sink:
  // 19 anchor candidates. The planner must stay forward and report the
  // statistics it used.
  const auto q = parse_query("MATCH (s:Source)-[:feeds]->(k:Sink) RETURN s, k");
  ASSERT_TRUE(q.ok());
  const QueryPlan plan = explain_query(g, q.value());
  EXPECT_FALSE(plan.reversed);
  EXPECT_EQ(plan.anchor, QueryPlan::Anchor::kLabel);
  EXPECT_EQ(plan.label, "Source");
  EXPECT_EQ(plan.estimated_candidates, 1u);
  const double fanout = 8.0 / 20.0;
  const double sink_sel = 19.0 / 20.0;
  EXPECT_NEAR(plan.estimated_rows, fanout * sink_sel, 1e-9);
  EXPECT_NEAR(plan.estimated_cost, 1.0 + fanout * sink_sel, 1e-9);
}

TEST(QueryCost, UnknownEdgeTypeMakesTraversalFree) {
  const PropertyGraph g = fan_graph(/*width=*/8, /*extra=*/11);
  // No "ghost" edges exist: fan-out 0, so both orientations cost just
  // their anchor. The smaller anchor (Source, 1) wins -> stays forward
  // even though the far endpoint posting list is larger.
  const auto q = parse_query("MATCH (s:Source)-[:ghost]->(k:Sink) RETURN s, k");
  ASSERT_TRUE(q.ok());
  const QueryPlan plan = explain_query(g, q.value());
  EXPECT_FALSE(plan.reversed);
  EXPECT_NEAR(plan.estimated_rows, 0.0, 1e-12);
  EXPECT_NEAR(plan.estimated_cost, 1.0, 1e-12);
}

TEST(QueryCost, ReversesOntoTheCheaperEndpoint) {
  const PropertyGraph g = fan_graph(/*width=*/8, /*extra=*/0);
  // 9 nodes, 8 feeds edges, fanout ~0.89. Anchoring on the single Source
  // (1 candidate) beats anchoring on 8 Sinks, so the written-backwards
  // query must reverse onto Source.
  const auto q = parse_query("MATCH (k:Sink)<-[:feeds]-(s:Source) RETURN s, k");
  ASSERT_TRUE(q.ok());
  const QueryPlan plan = explain_query(g, q.value());
  EXPECT_TRUE(plan.reversed);
  EXPECT_EQ(plan.label, "Source");
  EXPECT_EQ(plan.estimated_candidates, 1u);
}

TEST(QueryCost, VariableLengthFanoutCompounds) {
  const PropertyGraph g = fan_graph(/*width=*/8, /*extra=*/11);
  const auto fixed = parse_query("MATCH (s:Source)-[:feeds]->(k:Sink) RETURN s, k");
  const auto var = parse_query("MATCH (s:Source)-[:feeds*1..3]->(k:Sink) RETURN s, k");
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(var.ok());
  const QueryPlan fixed_plan = explain_query(g, fixed.value());
  const QueryPlan var_plan = explain_query(g, var.value());
  // Sum over path lengths 1..3 strictly exceeds the single-hop estimate.
  EXPECT_GT(var_plan.estimated_rows, fixed_plan.estimated_rows);
  EXPECT_GT(var_plan.estimated_cost, fixed_plan.estimated_cost);
}

// ------------------------------------------------ differential properties
//
// Per-construct planner == oracle checks over seeded random graphs. Each
// construct gets its own generator so a failure names the feature that
// broke; the full mixed-grammar sweep lives in the QueryEquivalence suite
// and the fuzz_query driver.

void expect_equivalent(const PropertyGraph& g, const std::string& text,
                       std::uint64_t seed, int iter) {
  const auto query = parse_query(text);
  ASSERT_TRUE(query.ok()) << "seed " << seed << " iter " << iter << ": " << text
                          << " — " << query.error().to_string();
  const auto planned = execute_query(g, query.value());
  const auto brute = execute_query_brute_force(g, query.value());
  ASSERT_EQ(planned.ok(), brute.ok())
      << "seed " << seed << " iter " << iter << ": " << text;
  if (!planned.ok()) return;
  EXPECT_TRUE(planned.value() == brute.value())
      << "seed " << seed << " iter " << iter << ": " << text;
}

TEST(QueryDifferential, VariableLengthMatchesOracle) {
  const char* kTemplates[] = {
      "MATCH (a)-[*1..2]->(b) RETURN a, b",
      "MATCH (a)-[*2..3]-(b) RETURN b",
      "MATCH (a:Run)<-[:partOf*1..]-(b) RETURN a, b",
      "MATCH (a)-[:produced*2]->(b) RETURN a, b",
      "MATCH (a:Entity)-[*..3]-(b:Run) RETURN a, b",
      // Plans a reversed walk (anchored on b:Run) on every generated graph.
      "MATCH (a)-[*1..2]-(b:Run) RETURN a",
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 12; ++iter) {
      const PropertyGraph g = testkit::gen_property_graph(rng);
      for (const char* text : kTemplates) expect_equivalent(g, text, seed, iter);
    }
  }
}

TEST(QueryDifferential, AggregatesMatchOracle) {
  const char* kTemplates[] = {
      "MATCH (a) RETURN count(a)",
      "MATCH (a)-->(b) RETURN a, count(b)",
      "MATCH (a:Run)--(b) RETURN a, min(b.score), max(b.score), avg(b.score)",
      "MATCH (a)-->(b) RETURN count(a), avg(a.rank)",
      "MATCH (a)-[*1..2]->(b) RETURN a, count(b), max(b.name)",
      // Plans a reversed walk (anchored on b:Run) on every generated graph.
      "MATCH (a)--(b:Run) RETURN b, count(a), avg(a.score)",
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 12; ++iter) {
      const PropertyGraph g = testkit::gen_property_graph(rng);
      for (const char* text : kTemplates) expect_equivalent(g, text, seed, iter);
    }
  }
}

TEST(QueryDifferential, OrderByAndPaginationMatchOracle) {
  const char* kTemplates[] = {
      "MATCH (a) RETURN a ORDER BY a.score DESC",
      "MATCH (a) RETURN a ORDER BY a.rank, a.name DESC SKIP 2 LIMIT 4",
      "MATCH (a)-->(b) RETURN a, b ORDER BY b.score LIMIT 3",
      "MATCH (a) RETURN a LIMIT 0",
      "MATCH (a)--(b) RETURN a, count(b) ORDER BY count(b) DESC, a LIMIT 5",
      "MATCH (a) RETURN a SKIP 1000",
      // Plans a reversed walk (anchored on b:Run) on every generated graph;
      // b.flag is a bool, so LIMIT 2 cuts through a group of ties.
      "MATCH (a)--(b:Run) RETURN a, b ORDER BY b.flag LIMIT 2",
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 12; ++iter) {
      const PropertyGraph g = testkit::gen_property_graph(rng);
      for (const char* text : kTemplates) expect_equivalent(g, text, seed, iter);
    }
  }
}

TEST(QueryDifferential, GeneratedQueriesMatchOracleAsTables) {
  // The full generated grammar through the table-level API (the
  // binding-level sweep lives in test_graph_concurrency).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 40; ++iter) {
      const PropertyGraph g = testkit::gen_property_graph(rng);
      const std::string text = testkit::gen_graph_query(rng);
      expect_equivalent(g, text, seed, iter);
    }
  }
}

// ------------------------------------------------------- SKIP past the end

// SKIP >= row count must return an empty table that still carries the
// RETURN schema — never an empty-schema result — and the planner and the
// brute-force oracle must agree on that, for plain, ordered, and
// aggregated queries alike.
TEST(QueryPagination, SkipPastEndKeepsColumns) {
  const PropertyGraph g = training_graph();
  const struct {
    const char* text;
    std::vector<ResultSet::Column> columns;
  } kCases[] = {
      {"MATCH (e:Entity) RETURN e SKIP 1000", {{"e", true}}},
      {"MATCH (e:Entity) RETURN e ORDER BY e.prov_id SKIP 1000", {{"e", true}}},
      {"MATCH (e:Entity) RETURN e, count(e) SKIP 1000",
       {{"e", true}, {"count(e)", false}}},
      {"MATCH (a:Activity)<-[:wasGeneratedBy]-(e) RETURN a, e SKIP 99",
       {{"a", true}, {"e", true}}},
  };
  for (const auto& c : kCases) {
    const auto query = parse_query(c.text);
    ASSERT_TRUE(query.ok()) << c.text;
    const auto planned = execute_query(g, query.value());
    const auto brute = execute_query_brute_force(g, query.value());
    ASSERT_TRUE(planned.ok()) << c.text;
    ASSERT_TRUE(brute.ok()) << c.text;
    EXPECT_TRUE(planned.value().rows.empty()) << c.text;
    EXPECT_EQ(planned.value().columns, c.columns) << c.text;
    EXPECT_TRUE(planned.value() == brute.value()) << c.text;
  }
}

// ----------------------------------------------------------- query cursor

/// Drains `cursor` at `page_size` rows per pull and returns the
/// concatenation as a table under the cursor's columns.
ResultSet drain_cursor(QueryCursor& cursor, std::size_t page_size) {
  ResultSet table;
  table.columns = cursor.columns();
  while (!cursor.done()) {
    auto page = cursor.next(page_size);
    if (page.empty()) break;
    EXPECT_LE(page.size(), page_size);
    for (auto& row : page) table.rows.push_back(std::move(row));
  }
  EXPECT_TRUE(cursor.done());
  EXPECT_TRUE(cursor.next(page_size).empty());
  return table;
}

TEST(QueryCursorEngine, PagesConcatenateToOneShotResult) {
  const PropertyGraph g = training_graph();
  const char* kQueries[] = {
      "MATCH (n) RETURN n",
      "MATCH (e:Entity) RETURN e",
      "MATCH (a:Activity)<-[:wasGeneratedBy]-(e) RETURN a, e",
      "MATCH (a:Activity)-[:used]->(d)<-[:used]-(b) RETURN a, b",
      "MATCH (e:Entity) WHERE e.prov_id != \"ex:ckpt\" RETURN e",
      "MATCH (n) RETURN n SKIP 1 LIMIT 3",
      "MATCH (n) RETURN n LIMIT 2",
  };
  for (const char* text : kQueries) {
    const auto one_shot = execute_query(g, text);
    ASSERT_TRUE(one_shot.ok()) << text;
    for (const std::size_t page_size : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
      auto cursor = QueryCursor::open(g, text);
      ASSERT_TRUE(cursor.ok()) << text;
      EXPECT_TRUE(cursor.value().streaming()) << text;
      const ResultSet paged = drain_cursor(cursor.value(), page_size);
      EXPECT_TRUE(paged == one_shot.value())
          << text << " at page_size " << page_size;
    }
  }
}

TEST(QueryCursorEngine, MaterializedModesPageIdentically) {
  const PropertyGraph g = training_graph();
  // ORDER BY and aggregates cannot stream per binding, nor can an
  // unbounded query whose plan reverses: the cursor pages over a
  // materialized table instead, still byte-identical in concat.
  const char* kQueries[] = {
      "MATCH (e:Entity) RETURN e ORDER BY e.prov_id DESC",
      "MATCH (n) RETURN n ORDER BY n.prov_id SKIP 1 LIMIT 2",
      "MATCH (a:Activity)<-[:wasGeneratedBy]-(e) RETURN a, count(e)",
      "MATCH (n) RETURN count(n)",
      // These plan a reversed walk, anchored on the one run activity. The
      // ORDER BY's two rows tie on `a`, so LIMIT 1 must keep the first.
      "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity {prov_id: \"ex:run\"}) RETURN a, count(e)",
      "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity {prov_id: \"ex:run\"}) "
      "RETURN e, a ORDER BY a LIMIT 1",
      "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity {prov_id: \"ex:run\"}) RETURN e",
  };
  for (const char* text : kQueries) {
    const auto one_shot = execute_query(g, text);
    ASSERT_TRUE(one_shot.ok()) << text;
    auto cursor = QueryCursor::open(g, text);
    ASSERT_TRUE(cursor.ok()) << text;
    EXPECT_FALSE(cursor.value().streaming()) << text;
    const ResultSet paged = drain_cursor(cursor.value(), 1);
    EXPECT_TRUE(paged == one_shot.value()) << text;
  }
}

TEST(QueryCursorEngine, DedupAcrossPageBoundaries) {
  // (a)--(d)--(b) with a == b allowed produces duplicate projected rows
  // when only `a` is returned; the stream must dedup exactly like the
  // batch engine even when duplicates straddle a page boundary.
  const PropertyGraph g = training_graph();
  const char* text = "MATCH (a)-[:used]-(d)-[:wasGeneratedBy]-(b) RETURN d";
  const auto one_shot = execute_query(g, text);
  ASSERT_TRUE(one_shot.ok());
  auto cursor = QueryCursor::open(g, text);
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(drain_cursor(cursor.value(), 1) == one_shot.value());
}

TEST(QueryCursorEngine, ErrorsMatchExecuteQuery) {
  const PropertyGraph g = training_graph();
  EXPECT_FALSE(QueryCursor::open(g, "MATCH bogus").ok());
  // Aggregate-over-missing-var errors surface at open, like execute_query.
  EXPECT_FALSE(QueryCursor::open(g, "MATCH (n) RETURN count(m)").ok());
}

TEST(QueryCursorEngine, GeneratedQueriesPageToOracle) {
  // The full generated grammar: cursor pages at several sizes must
  // concatenate to the one-shot planned table.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 25; ++iter) {
      const PropertyGraph g = testkit::gen_property_graph(rng);
      const std::string text = testkit::gen_graph_query(rng);
      const auto query = parse_query(text);
      ASSERT_TRUE(query.ok()) << text;
      const auto one_shot = execute_query(g, query.value());
      ASSERT_TRUE(one_shot.ok()) << text;
      for (const std::size_t page_size :
           {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
        auto cursor = QueryCursor::open(g, query.value());
        ASSERT_TRUE(cursor.ok()) << text;
        const ResultSet paged = drain_cursor(cursor.value(), page_size);
        EXPECT_TRUE(paged == one_shot.value())
            << "seed " << seed << " iter " << iter << " page " << page_size
            << ": " << text;
      }
    }
  }
}

TEST(CompareValues, TotalOrderAcrossTypes) {
  const json::Value null_v{nullptr};
  const json::Value bool_v{true};
  const json::Value int_v{std::int64_t{2}};
  const json::Value dbl_v{2.5};
  const json::Value str_v{std::string("a")};
  EXPECT_LT(compare_values(null_v, bool_v), 0);
  EXPECT_LT(compare_values(bool_v, int_v), 0);
  EXPECT_LT(compare_values(int_v, dbl_v), 0);  // numeric comparison 2 < 2.5
  EXPECT_LT(compare_values(dbl_v, str_v), 0);
  EXPECT_EQ(compare_values(int_v, json::Value{2.0}), 0);  // 2 == 2.0
  EXPECT_GT(compare_values(str_v, int_v), 0);
}

}  // namespace
}  // namespace provml::graphstore
