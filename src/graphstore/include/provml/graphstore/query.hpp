// A Cypher-inspired pattern query language over the property graph — the
// query surface the yProv service exposes for "complex queries related to
// the ML lifecycle" (paper's discussion of ProvLake-style querying). One
// MATCH path, optional WHERE filters, a RETURN list that may aggregate,
// and ORDER BY / SKIP / LIMIT pagination:
//
//   MATCH (r:Activity {prov_id: "ex:run_0"})<-[:wasGeneratedBy]-(m:Entity)
//   RETURN m
//
//   MATCH (d:Entity {prov_id: "ex:dataset"})<-[:wasDerivedFrom*1..3]-(x)
//   RETURN count(x)
//
//   MATCH (r:Run) RETURN r ORDER BY r.loss DESC LIMIT 10
//
// Grammar (informal):
//   query   := MATCH path [WHERE cond (AND cond)*] RETURN item (',' item)*
//              [ORDER BY okey (',' okey)*] [SKIP int] [LIMIT int]
//   path    := node (edge node)*
//   node    := '(' [var] [':' label]* ['{' props '}'] ')'
//   edge    := '-[' [':' type] [varlen] ']->' | '<-[' ... ']-' | '-[' ... ']-'
//   varlen  := '*' [min] ['..' [max]]      (*, *n, *1..3, *..3, *1..)
//   props   := key ':' literal (',' key ':' literal)*   (string/int/float/bool)
//   cond    := var '.' key op literal     with op in  = != < <= > >=
//   item    := var | count '(' var ')' | (min|max|avg) '(' var '.' key ')'
//   okey    := (var ['.' key] | item) [ASC|DESC]
//
// Variable-length semantics: (a)-[:t*min..max]->(b) matches when a simple
// path (all nodes on the segment distinct, a included) of length L with
// min <= L <= max connects a to b through edges of type t. min >= 1; an
// open upper bound (*1..) is only allowed with min <= 1, where matching
// degenerates to plain reachability and runs as a linear BFS.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/graphstore/graph.hpp"

namespace provml::graphstore {

/// One node step of a parsed pattern.
struct NodePattern {
  std::string var;                 ///< binding name; empty = anonymous
  std::vector<std::string> labels;
  json::Object properties;         ///< equality constraints
};

/// Sentinel for an open variable-length upper bound (`*1..`).
inline constexpr std::size_t kUnboundedHops = std::numeric_limits<std::size_t>::max();

/// One edge step of a parsed pattern. A fixed edge has
/// min_hops == max_hops == 1 and variable == false.
struct EdgePattern {
  std::string type;                ///< empty = any type
  Direction direction = Direction::kOut;  ///< relative to the left node
  bool variable = false;           ///< true when written with '*'
  std::size_t min_hops = 1;
  std::size_t max_hops = 1;        ///< kUnboundedHops for an open bound
};

/// A WHERE condition: <var>.<key> <op> <literal>.
struct Condition {
  std::string var;
  std::string key;
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe } op = Op::kEq;
  json::Value literal;
};

/// One RETURN item (or the target of an ORDER BY key): a plain variable or
/// an aggregate over the matched rows. count takes a variable; min/max/avg
/// take var.key and aggregate that property across the group.
struct ReturnItem {
  enum class Agg { kNone, kCount, kMin, kMax, kAvg };
  Agg agg = Agg::kNone;
  std::string var;
  std::string key;                 ///< property key (min/max/avg only)

  /// Column name as it appears in a ResultSet: "v", "count(v)", "avg(v.k)".
  [[nodiscard]] std::string display() const;

  friend bool operator==(const ReturnItem& a, const ReturnItem& b) {
    return a.agg == b.agg && a.var == b.var && a.key == b.key;
  }
};

/// One ORDER BY key. `ref` is either a returned item (aggregate or plain
/// var) or var.key over a returned plain var; ties keep the engine's
/// deterministic base order, so sorting is total and reproducible.
struct SortKey {
  ReturnItem ref;
  std::string property;            ///< non-empty for `var.key` over a plain var
  bool descending = false;
};

struct Query {
  std::vector<NodePattern> nodes;  ///< n nodes
  std::vector<EdgePattern> edges;  ///< n-1 edges
  std::vector<Condition> conditions;
  std::vector<ReturnItem> returns;
  std::vector<SortKey> order_by;
  std::size_t skip = 0;
  std::size_t limit = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool has_aggregate() const;
  [[nodiscard]] bool has_variable_length() const;
};

/// Parses the query text. Errors carry a byte offset in `where`.
[[nodiscard]] Expected<Query> parse_query(const std::string& text);

/// One result row of the binding-level API: returned variable → matched
/// node. Only meaningful for aggregate-free queries.
using Row = std::map<std::string, NodeId>;

/// A fully evaluated result table: one column per RETURN item, cells are
/// JSON values. Plain-variable columns hold the bound NodeId as an
/// integer and are flagged is_node so callers can render them as prov
/// ids. Row order is deterministic: the engine's base order (ascending
/// match paths / group keys), stably re-sorted by ORDER BY, then
/// SKIP/LIMIT.
struct ResultSet {
  struct Column {
    std::string name;
    bool is_node = false;
    friend bool operator==(const Column& a, const Column& b) {
      return a.name == b.name && a.is_node == b.is_node;
    }
  };
  std::vector<Column> columns;
  std::vector<std::vector<json::Value>> rows;

  friend bool operator==(const ResultSet& a, const ResultSet& b) {
    return a.columns == b.columns && a.rows == b.rows;
  }
};

/// Total order over JSON values used by ORDER BY and min/max: null < bool
/// < number < string < array < object, numbers numerically, strings
/// lexicographically. Returns <0 / 0 / >0. Exposed so tests and the oracle
/// share the one definition (it is the spec, not an optimization).
[[nodiscard]] int compare_values(const json::Value& a, const json::Value& b);

/// How the executor anchors the path match. Exposed for tests and benches;
/// explain_query() fills it without executing.
struct QueryPlan {
  enum class Anchor { kScanAll, kLabel, kProperty } anchor = Anchor::kScanAll;
  std::string label;            ///< chosen label (kLabel/kProperty)
  std::string property_key;     ///< chosen property (kProperty)
  bool reversed = false;        ///< match ran from the last pattern node
  std::size_t estimated_candidates = 0;  ///< posting-list size of the anchor
  /// Cardinality estimate for the full path, derived from posting-list
  /// sizes and per-edge-type fan-out statistics. This is the figure the
  /// planner minimizes when choosing which endpoint to anchor on.
  double estimated_rows = 0.0;
  /// Sum of per-step frontier estimates — the work estimate that decided
  /// `reversed`.
  double estimated_cost = 0.0;
};

/// Plans `query` against `graph` without executing it: estimates the
/// frontier size after every expansion step from both endpoints (anchor
/// posting list × per-edge-type fan-out × next-pattern selectivity) and
/// picks the cheaper orientation.
[[nodiscard]] QueryPlan explain_query(const PropertyGraph& graph, const Query& query);

/// Executes a parsed query against `graph`: opens a QueryCursor and drains
/// it, so the one planned executor answers both. The result is
/// deterministic (see ResultSet).
[[nodiscard]] Expected<ResultSet> execute_query(const PropertyGraph& graph,
                                                const Query& query);

/// Convenience: parse + execute.
[[nodiscard]] Expected<ResultSet> execute_query(const PropertyGraph& graph,
                                                const std::string& text);

/// Reference evaluator: full node-table scan, forward orientation, no
/// index use, no condition pushdown, DFS path enumeration for
/// variable-length edges, full materialization before aggregation and
/// sorting. Semantically equivalent to execute_query() by construction —
/// the property/fuzz suites assert the two return identical tables.
[[nodiscard]] Expected<ResultSet> execute_query_brute_force(const PropertyGraph& graph,
                                                            const Query& query);

/// The planned query executor, pull-based. Pages pulled with next()
/// concatenate to the table execute_query() returns — same columns, same
/// rows, same order. The one matcher is an incremental depth-first walk
/// with sorted-unique children at every step, from an indexed anchor,
/// with WHERE conditions pushed into the walk and BFS variable-length
/// expansion; it emits complete paths in ascending lexicographic order.
/// Rows are those paths deduplicated on the RETURNed bindings, and every
/// later stage is a sink over them:
///
///   · Without ORDER BY or aggregates, with a finite LIMIT or a plan that
///     does not reverse, the walk runs forward, which is the canonical
///     order, and rows stream out one binding at a time: a page costs
///     O(page) walk work, not O(result).
///   · Otherwise open() walks in the plan's orientation, flipping and
///     sorting a reversed walk's paths into the canonical order, and
///     runs the sinks to the end: aggregates fold each row into per-group
///     accumulators in base order; ORDER BY keeps a heap bounded by
///     SKIP+LIMIT, ties broken on base order. next() pages that table.
///
/// A cursor holds a pointer into the graph and no locks: callers that
/// share the graph must pin it (the service pins cursors to a
/// graph_version and invalidates on write).
class QueryCursor {
 public:
  QueryCursor(QueryCursor&&) noexcept;
  QueryCursor& operator=(QueryCursor&&) noexcept;
  ~QueryCursor();

  [[nodiscard]] static Expected<QueryCursor> open(const PropertyGraph& graph,
                                                  const Query& query);
  /// Convenience: parse + open.
  [[nodiscard]] static Expected<QueryCursor> open(const PropertyGraph& graph,
                                                  const std::string& text);

  /// The result schema, identical to execute_query()'s ResultSet columns.
  [[nodiscard]] const std::vector<ResultSet::Column>& columns() const;

  /// Up to max_rows further rows, in canonical result order. An empty
  /// return means the result is exhausted (done() turns true).
  [[nodiscard]] std::vector<std::vector<json::Value>> next(std::size_t max_rows);

  /// True once every result row has been handed out.
  [[nodiscard]] bool done() const;

  /// True when rows are produced lazily per binding (no ORDER BY, no
  /// aggregates, a forward walk); false when the cursor pages over a
  /// table finished on open.
  [[nodiscard]] bool streaming() const;

 private:
  struct Impl;
  explicit QueryCursor(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Binding-level execution for aggregate-free queries (errors when the
/// RETURN list aggregates): execute_query()'s rows, each cell keyed by
/// its returned variable as a NodeId. Kept for callers that need node
/// identity.
[[nodiscard]] Expected<std::vector<Row>> run_query(const PropertyGraph& graph,
                                                   const Query& query);

/// Convenience: parse + run.
[[nodiscard]] Expected<std::vector<Row>> run_query(const PropertyGraph& graph,
                                                   const std::string& text);

/// The same adapter over execute_query_brute_force(). The property/fuzz
/// suites assert run_query == run_query_brute_force row-for-row.
[[nodiscard]] Expected<std::vector<Row>> run_query_brute_force(const PropertyGraph& graph,
                                                               const Query& query);

/// One hop of a variable-length BFS expansion, in discovery order.
struct ReachHop {
  NodeId node = 0;
  std::size_t depth = 0;  ///< hops from the start node (>= 1)
  EdgeId via = 0;         ///< the edge that first discovered `node`
};

/// The engine's `*1..max` primitive, exposed for callers that need hop
/// metadata (the explorer's lineage view): breadth-first expansion from
/// `start` over `type` edges (empty = any), excluding `start`, visiting
/// every node whose shortest distance is <= max_hops. Discovery order is
/// deterministic: per node, edges in insertion order. Pass kUnboundedHops
/// for an unlimited walk.
[[nodiscard]] std::vector<ReachHop> var_length_reach(const PropertyGraph& graph,
                                                     NodeId start, Direction direction,
                                                     const std::string& type,
                                                     std::size_t max_hops);

}  // namespace provml::graphstore
