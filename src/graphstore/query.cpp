#include "provml/graphstore/query.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <optional>
#include <set>

namespace provml::graphstore {

std::string ReturnItem::display() const {
  switch (agg) {
    case Agg::kNone: return var;
    case Agg::kCount: return "count(" + var + ")";
    case Agg::kMin: return "min(" + var + "." + key + ")";
    case Agg::kMax: return "max(" + var + "." + key + ")";
    case Agg::kAvg: return "avg(" + var + "." + key + ")";
  }
  return var;
}

bool Query::has_aggregate() const {
  return std::any_of(returns.begin(), returns.end(), [](const ReturnItem& item) {
    return item.agg != ReturnItem::Agg::kNone;
  });
}

bool Query::has_variable_length() const {
  return std::any_of(edges.begin(), edges.end(),
                     [](const EdgePattern& e) { return e.variable; });
}

int compare_values(const json::Value& a, const json::Value& b) {
  auto rank = [](const json::Value& v) {
    // Numbers share one rank so 1 and 1.0 compare numerically.
    switch (v.type()) {
      case json::Value::Type::kNull: return 0;
      case json::Value::Type::kBool: return 1;
      case json::Value::Type::kInt:
      case json::Value::Type::kDouble: return 2;
      case json::Value::Type::kString: return 3;
      case json::Value::Type::kArray: return 4;
      case json::Value::Type::kObject: return 5;
    }
    return 6;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type()) {
    case json::Value::Type::kNull: return 0;
    case json::Value::Type::kBool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case json::Value::Type::kInt:
    case json::Value::Type::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case json::Value::Type::kString: {
      const int c = a.as_string().compare(b.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case json::Value::Type::kArray: {
      const json::Array& xs = a.as_array();
      const json::Array& ys = b.as_array();
      const std::size_t n = std::min(xs.size(), ys.size());
      for (std::size_t i = 0; i < n; ++i) {
        const int c = compare_values(xs[i], ys[i]);
        if (c != 0) return c;
      }
      return xs.size() < ys.size() ? -1 : (xs.size() > ys.size() ? 1 : 0);
    }
    case json::Value::Type::kObject: {
      const json::Object& xo = a.as_object();
      const json::Object& yo = b.as_object();
      auto xi = xo.begin();
      auto yi = yo.begin();
      for (; xi != xo.end() && yi != yo.end(); ++xi, ++yi) {
        const int ck = xi->first.compare(yi->first);
        if (ck != 0) return ck < 0 ? -1 : 1;
        const int cv = compare_values(xi->second, yi->second);
        if (cv != 0) return cv;
      }
      return xo.size() < yo.size() ? -1 : (xo.size() > yo.size() ? 1 : 0);
    }
  }
  return 0;
}

namespace {

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

// ----------------------------------------------------------------- parser

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Expected<Query> run() {
    skip_ws();
    if (!consume_keyword("MATCH")) return fail("expected MATCH");
    Query query;
    Expected<NodePattern> first = parse_node();
    if (!first.ok()) return first.error();
    query.nodes.push_back(first.take());
    skip_ws();
    while (!eof() && (peek() == '-' || peek() == '<')) {
      Expected<EdgePattern> edge = parse_edge();
      if (!edge.ok()) return edge.error();
      Expected<NodePattern> node = parse_node();
      if (!node.ok()) return node.error();
      query.edges.push_back(edge.take());
      query.nodes.push_back(node.take());
      skip_ws();
    }
    if (consume_keyword("WHERE")) {
      while (true) {
        Expected<Condition> cond = parse_condition();
        if (!cond.ok()) return cond.error();
        query.conditions.push_back(cond.take());
        if (!consume_keyword("AND")) break;
      }
    }
    if (!consume_keyword("RETURN")) return fail("expected RETURN");
    while (true) {
      Expected<ReturnItem> item = parse_return_item();
      if (!item.ok()) return item.error();
      query.returns.push_back(item.take());
      skip_ws();
      if (!consume(',')) break;
    }
    if (consume_keyword("ORDER")) {
      if (!consume_keyword("BY")) return fail("expected BY after ORDER");
      while (true) {
        Expected<SortKey> key = parse_sort_key();
        if (!key.ok()) return key.error();
        query.order_by.push_back(key.take());
        skip_ws();
        if (!consume(',')) break;
      }
    }
    if (consume_keyword("SKIP")) {
      Expected<std::size_t> n = parse_count("SKIP");
      if (!n.ok()) return n.error();
      query.skip = n.value();
    }
    if (consume_keyword("LIMIT")) {
      Expected<std::size_t> n = parse_count("LIMIT");
      if (!n.ok()) return n.error();
      query.limit = n.value();
    }
    skip_ws();
    if (!eof()) return fail("trailing characters after query");
    return check_semantics(std::move(query));
  }

 private:
  Expected<Query> check_semantics(Query query) {
    auto bound = [&](const std::string& var) {
      return !var.empty() &&
             std::any_of(query.nodes.begin(), query.nodes.end(),
                         [&](const NodePattern& n) { return n.var == var; });
    };
    for (const ReturnItem& item : query.returns) {
      if (!bound(item.var)) {
        return fail("RETURN references unbound variable '" + item.var + "'");
      }
    }
    for (const Condition& cond : query.conditions) {
      if (!bound(cond.var)) {
        return fail("WHERE references unbound variable '" + cond.var + "'");
      }
    }
    // ORDER BY must reference RETURN output: an aggregate key must repeat a
    // returned aggregate verbatim; a plain key's variable must be returned
    // un-aggregated (rows are deduplicated on the returned bindings, so
    // ordering by anything else would be ambiguous).
    for (const SortKey& key : query.order_by) {
      const bool matches = std::any_of(
          query.returns.begin(), query.returns.end(), [&](const ReturnItem& item) {
            return key.ref.agg == ReturnItem::Agg::kNone
                       ? item.agg == ReturnItem::Agg::kNone && item.var == key.ref.var
                       : item == key.ref;
          });
      if (!matches) {
        return fail("ORDER BY references '" + key.ref.display() +
                    "' which is not in the RETURN list");
      }
    }
    return query;
  }

  Expected<Query> fail(const std::string& message) const {
    return Error{message, "offset " + std::to_string(pos_)};
  }
  Error fail_err(const std::string& message) const {
    return Error{message, "offset " + std::to_string(pos_)};
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek())) != 0) ++pos_;
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }

  /// Keywords only match on a word boundary: "ANDroid" is an identifier,
  /// not AND + "roid".
  bool consume_keyword(const char* keyword) {
    skip_ws();
    const std::size_t len = std::string(keyword).size();
    if (text_.compare(pos_, len, keyword) != 0) return false;
    if (pos_ + len < text_.size()) {
      const char next = text_[pos_ + len];
      if (std::isalnum(static_cast<unsigned char>(next)) != 0 || next == '_') {
        return false;
      }
    }
    pos_ += len;
    return true;
  }

  std::string parse_identifier() {
    std::string out;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) != 0 ||
                      peek() == '_')) {
      out += text_[pos_++];
    }
    return out;
  }

  /// Labels and property keys may be qualified ("prov_id", "provml:name").
  std::string parse_name() {
    std::string out = parse_identifier();
    while (!eof() && (peek() == ':' || peek() == '.') && pos_ + 1 < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_ + 1])) != 0 ||
            text_[pos_ + 1] == '_')) {
      // Only continue across ':' when it is part of a qualified name, i.e.
      // inside a property map key; label positions never include ':'.
      out += text_[pos_++];
      out += parse_identifier();
    }
    return out;
  }

  Expected<json::Value> parse_literal() {
    skip_ws();
    if (eof()) return Error{fail_err("expected literal")};
    if (peek() == '"') {
      ++pos_;
      std::string out;
      while (!eof() && peek() != '"') {
        if (peek() == '\\' && pos_ + 1 < text_.size()) ++pos_;
        out += text_[pos_++];
      }
      if (!consume('"')) return fail_err("unterminated string literal");
      return json::Value(out);
    }
    if (consume_keyword("true")) return json::Value(true);
    if (consume_keyword("false")) return json::Value(false);
    // Number: [-]digits[.digits]
    std::string token;
    if (!eof() && peek() == '-') token += text_[pos_++];
    bool is_double = false;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                      peek() == '.')) {
      if (peek() == '.') is_double = true;
      token += text_[pos_++];
    }
    if (token.empty() || token == "-") return fail_err("expected literal");
    if (is_double) return json::Value(std::stod(token));
    return json::Value(static_cast<std::int64_t>(std::stoll(token)));
  }

  /// Nonnegative integer for SKIP/LIMIT.
  Expected<std::size_t> parse_count(const char* keyword) {
    skip_ws();
    std::string token;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      token += text_[pos_++];
    }
    if (token.empty()) {
      return Error{fail_err(std::string("expected nonnegative integer after ") + keyword)};
    }
    return static_cast<std::size_t>(std::stoull(token));
  }

  Expected<NodePattern> parse_node() {
    skip_ws();
    if (!consume('(')) return fail_err("expected '('");
    NodePattern node;
    skip_ws();
    node.var = parse_identifier();
    skip_ws();
    while (consume(':')) {
      const std::string label = parse_identifier();
      if (label.empty()) return fail_err("expected label after ':'");
      node.labels.push_back(label);
      skip_ws();
    }
    if (consume('{')) {
      while (true) {
        skip_ws();
        const std::string key = parse_name();
        if (key.empty()) return fail_err("expected property key");
        skip_ws();
        if (!consume(':')) return fail_err("expected ':' after property key");
        Expected<json::Value> value = parse_literal();
        if (!value.ok()) return value.error();
        node.properties.set(key, value.take());
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) break;
        return fail_err("expected ',' or '}' in property map");
      }
      skip_ws();
    }
    if (!consume(')')) return fail_err("expected ')'");
    return node;
  }

  Expected<Condition> parse_condition() {
    skip_ws();
    Condition cond;
    cond.var = parse_identifier();
    if (cond.var.empty()) return fail_err("expected variable in WHERE");
    if (!consume('.')) return fail_err("expected '.' after WHERE variable");
    cond.key = parse_name();
    if (cond.key.empty()) return fail_err("expected property key in WHERE");
    skip_ws();
    if (consume('!')) {
      if (!consume('=')) return fail_err("expected '!='");
      cond.op = Condition::Op::kNe;
    } else if (consume('<')) {
      cond.op = consume('=') ? Condition::Op::kLe : Condition::Op::kLt;
    } else if (consume('>')) {
      cond.op = consume('=') ? Condition::Op::kGe : Condition::Op::kGt;
    } else if (consume('=')) {
      cond.op = Condition::Op::kEq;
    } else {
      return fail_err("expected comparison operator");
    }
    Expected<json::Value> literal = parse_literal();
    if (!literal.ok()) return literal.error();
    cond.literal = literal.take();
    return cond;
  }

  /// RETURN item: `var`, `count(var)`, or `min|max|avg(var.key)`. An
  /// aggregate name followed by anything but '(' is a plain variable.
  Expected<ReturnItem> parse_return_item() {
    skip_ws();
    ReturnItem item;
    const std::string word = parse_identifier();
    if (word.empty()) return fail_err("expected variable or aggregate in RETURN");
    skip_ws();
    if (!eof() && peek() == '(' &&
        (word == "count" || word == "min" || word == "max" || word == "avg")) {
      ++pos_;
      item.agg = word == "count" ? ReturnItem::Agg::kCount
                 : word == "min" ? ReturnItem::Agg::kMin
                 : word == "max" ? ReturnItem::Agg::kMax
                                 : ReturnItem::Agg::kAvg;
      skip_ws();
      item.var = parse_identifier();
      if (item.var.empty()) return fail_err("expected variable inside " + word + "()");
      if (item.agg != ReturnItem::Agg::kCount) {
        if (!consume('.')) return fail_err(word + "() takes var.property");
        item.key = parse_name();
        if (item.key.empty()) return fail_err("expected property key in " + word + "()");
      }
      skip_ws();
      if (!consume(')')) return fail_err("expected ')' closing " + word + "()");
      return item;
    }
    item.var = word;
    return item;
  }

  /// ORDER BY key: a RETURN item form, optionally `var.key`, with ASC/DESC.
  Expected<SortKey> parse_sort_key() {
    Expected<ReturnItem> ref = parse_return_item();
    if (!ref.ok()) return ref.error();
    SortKey key;
    key.ref = ref.take();
    if (key.ref.agg == ReturnItem::Agg::kNone && consume('.')) {
      key.property = parse_name();
      if (key.property.empty()) return fail_err("expected property key in ORDER BY");
    }
    skip_ws();
    if (consume_keyword("DESC")) {
      key.descending = true;
    } else {
      (void)consume_keyword("ASC");
    }
    return key;
  }

  Expected<EdgePattern> parse_edge() {
    skip_ws();
    EdgePattern edge;
    bool left_arrow = false;
    if (consume('<')) {
      left_arrow = true;
      if (!consume('-')) return fail_err("expected '-' after '<'");
    } else if (!consume('-')) {
      return fail_err("expected edge");
    }
    if (consume('[')) {
      skip_ws();
      if (consume(':')) edge.type = parse_identifier();
      skip_ws();
      if (consume('*')) {
        edge.variable = true;
        edge.min_hops = 1;
        edge.max_hops = kUnboundedHops;
        skip_ws();
        std::string digits;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
          digits += text_[pos_++];
        }
        if (!digits.empty()) edge.min_hops = std::stoull(digits);
        if (!eof() && peek() == '.' && pos_ + 1 < text_.size() &&
            text_[pos_ + 1] == '.') {
          pos_ += 2;
          std::string upper;
          while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
            upper += text_[pos_++];
          }
          if (!upper.empty()) edge.max_hops = std::stoull(upper);
        } else if (!digits.empty()) {
          edge.max_hops = edge.min_hops;  // *n — exact length
        }
        if (edge.min_hops < 1) {
          return fail_err("variable-length lower bound must be >= 1");
        }
        if (edge.max_hops < edge.min_hops) {
          return fail_err("variable-length upper bound below lower bound");
        }
        if (edge.max_hops == kUnboundedHops && edge.min_hops > 1) {
          return fail_err("open upper bound requires a lower bound of 1");
        }
        skip_ws();
      }
      if (!consume(']')) return fail_err("expected ']'");
    }
    if (!consume('-')) return fail_err("expected '-' closing the edge");
    const bool right_arrow = consume('>');
    if (left_arrow && right_arrow) return fail_err("edge cannot point both ways");
    if (left_arrow) {
      edge.direction = Direction::kIn;
    } else if (right_arrow) {
      edge.direction = Direction::kOut;
    } else {
      edge.direction = Direction::kBoth;
    }
    return edge;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- matcher

bool node_matches(const PropertyGraph& graph, NodeId id, const NodePattern& pattern) {
  const Node* n = graph.node(id);
  if (n == nullptr) return false;
  for (const std::string& label : pattern.labels) {
    if (n->labels.count(label) == 0) return false;
  }
  for (const auto& [key, value] : pattern.properties) {
    const json::Value* actual = n->properties.find(key);
    if (actual == nullptr || !(*actual == value)) return false;
  }
  return true;
}

bool condition_holds_impl(const PropertyGraph& graph, NodeId id, const Condition& cond);

/// Effective upper bound of a variable-length edge: an open bound is
/// capped by the node count — a simple path cannot be longer.
std::size_t capped_max_hops(const PropertyGraph& graph, const EdgePattern& edge) {
  return std::min(edge.max_hops, graph.node_count());
}

/// Planner-side variable-length targets from `from`: nodes reachable by a
/// simple path whose length falls in [min_hops, max_hops]. min <= 1
/// degenerates to reachability and runs as a linear BFS; min > 1
/// enumerates simple paths depth-first (bounded by max_hops, which the
/// parser forces finite in that case).
std::vector<NodeId> var_targets_planned(const PropertyGraph& graph, NodeId from,
                                        const EdgePattern& edge) {
  const std::size_t cap = capped_max_hops(graph, edge);
  std::vector<NodeId> out;
  if (edge.min_hops <= 1) {
    for (const ReachHop& hop :
         var_length_reach(graph, from, edge.direction, edge.type, cap)) {
      out.push_back(hop.node);
    }
    return out;
  }
  std::set<NodeId> targets;
  std::set<NodeId> on_path{from};
  // Explicit DFS over simple paths; stack depth == path length <= cap.
  struct Frame {
    NodeId node;
    std::size_t depth;
    std::vector<NodeId> next;
    std::size_t cursor = 0;
  };
  std::vector<Frame> frames;
  frames.push_back({from, 0, graph.neighbors(from, edge.direction, edge.type)});
  while (!frames.empty()) {
    Frame& top = frames.back();
    if (top.depth == cap || top.cursor == top.next.size()) {
      on_path.erase(top.node);
      frames.pop_back();
      continue;
    }
    const NodeId next = top.next[top.cursor++];
    if (on_path.count(next) != 0) continue;
    const std::size_t depth = top.depth + 1;
    if (depth >= edge.min_hops) targets.insert(next);
    on_path.insert(next);
    frames.push_back({next, depth, graph.neighbors(next, edge.direction, edge.type)});
  }
  return {targets.begin(), targets.end()};
}

/// Oracle-side variable-length targets: an independent implementation.
/// min <= 1 runs level-synchronous distance relaxation (no queue, no
/// discovery order); min > 1 recursively enumerates simple paths.
void var_targets_brute_dfs(const PropertyGraph& graph, const EdgePattern& edge,
                           NodeId node, std::size_t depth, std::size_t cap,
                           std::set<NodeId>& on_path, std::set<NodeId>& targets) {
  if (depth == cap) return;
  for (const NodeId next : graph.neighbors(node, edge.direction, edge.type)) {
    if (on_path.count(next) != 0) continue;
    if (depth + 1 >= edge.min_hops) targets.insert(next);
    on_path.insert(next);
    var_targets_brute_dfs(graph, edge, next, depth + 1, cap, on_path, targets);
    on_path.erase(next);
  }
}

std::vector<NodeId> var_targets_brute(const PropertyGraph& graph, NodeId from,
                                      const EdgePattern& edge) {
  const std::size_t cap = capped_max_hops(graph, edge);
  std::set<NodeId> targets;
  if (edge.min_hops <= 1) {
    std::set<NodeId> frontier{from};
    std::set<NodeId> seen{from};
    for (std::size_t round = 0; round < cap && !frontier.empty(); ++round) {
      std::set<NodeId> next_frontier;
      for (const NodeId node : frontier) {
        for (const NodeId next : graph.neighbors(node, edge.direction, edge.type)) {
          if (seen.insert(next).second) {
            next_frontier.insert(next);
            targets.insert(next);
          }
        }
      }
      frontier.swap(next_frontier);
    }
  } else {
    std::set<NodeId> on_path{from};
    var_targets_brute_dfs(graph, edge, from, 0, cap, on_path, targets);
  }
  return {targets.begin(), targets.end()};
}

// ---------------------------------------------------------------- planner

/// Plans where candidate nodes for `pattern` come from: the smallest
/// posting list over every label and every label×property pair, or a full
/// scan when the pattern has no label.
QueryPlan plan_anchor(const PropertyGraph& graph, const NodePattern& pattern) {
  QueryPlan plan;
  if (pattern.labels.empty()) {
    plan.anchor = QueryPlan::Anchor::kScanAll;
    plan.estimated_candidates = graph.node_count();
    return plan;
  }
  plan.anchor = QueryPlan::Anchor::kLabel;
  plan.label = pattern.labels.front();
  plan.estimated_candidates = graph.count_with_label(pattern.labels.front());
  for (const std::string& label : pattern.labels) {
    const std::size_t n = graph.count_with_label(label);
    if (n < plan.estimated_candidates) {
      plan.anchor = QueryPlan::Anchor::kLabel;
      plan.label = label;
      plan.estimated_candidates = n;
    }
    for (const auto& [key, value] : pattern.properties) {
      const std::size_t m = graph.count_with_property(label, key, value);
      if (m <= plan.estimated_candidates) {
        plan.anchor = QueryPlan::Anchor::kProperty;
        plan.label = label;
        plan.property_key = key;
        plan.estimated_candidates = m;
      }
    }
  }
  return plan;
}

/// Fraction of the node table a pattern's cheapest posting list selects.
double pattern_selectivity(const PropertyGraph& graph, const NodePattern& pattern) {
  if (graph.node_count() == 0) return 0.0;
  return static_cast<double>(plan_anchor(graph, pattern).estimated_candidates) /
         static_cast<double>(graph.node_count());
}

/// Average per-node fan-out of one edge step, from the per-type edge
/// counters (untyped steps use the whole edge table). Undirected steps see
/// both endpoints. Variable-length steps sum the per-length fan-out over
/// the hop range, capped at a small horizon — the estimate only has to
/// rank orientations, not predict exact cardinality.
double edge_fanout(const PropertyGraph& graph, const EdgePattern& edge) {
  if (graph.node_count() == 0) return 0.0;
  const std::size_t edges =
      edge.type.empty() ? graph.edge_count() : graph.count_with_edge_type(edge.type);
  double fanout = static_cast<double>(edges) / static_cast<double>(graph.node_count());
  if (edge.direction == Direction::kBoth) fanout *= 2.0;
  if (!edge.variable) return fanout;
  constexpr std::size_t kCostHorizon = 8;
  const std::size_t hi = std::min(capped_max_hops(graph, edge), kCostHorizon);
  double total = 0.0;
  double step = 1.0;
  for (std::size_t len = 1; len <= hi; ++len) {
    step *= fanout;
    if (len >= edge.min_hops) total += step;
  }
  return total;
}

/// Frontier-size walk along the path in the given orientation: the anchor
/// posting list, then fan-out × next-pattern selectivity per step. Returns
/// the plan for that orientation with estimated_rows (final frontier) and
/// estimated_cost (sum of frontiers — the work of getting there).
QueryPlan estimate_orientation(const PropertyGraph& graph, const Query& query) {
  QueryPlan plan = plan_anchor(graph, query.nodes.front());
  double rows = static_cast<double>(plan.estimated_candidates);
  double cost = rows;
  for (std::size_t i = 1; i < query.nodes.size(); ++i) {
    rows *= edge_fanout(graph, query.edges[i - 1]) *
            pattern_selectivity(graph, query.nodes[i]);
    cost += rows;
  }
  plan.estimated_rows = rows;
  plan.estimated_cost = cost;
  return plan;
}

/// The raw candidate pool for a pattern per `plan`: the chosen posting
/// list, ascending and duplicate-free (PropertyGraph's accessors
/// guarantee both), *not* yet re-checked against the whole pattern.
std::vector<NodeId> anchor_pool(const PropertyGraph& graph, const NodePattern& pattern,
                                const QueryPlan& plan) {
  switch (plan.anchor) {
    case QueryPlan::Anchor::kScanAll:
      return graph.node_ids();
    case QueryPlan::Anchor::kLabel:
      return graph.nodes_with_label(plan.label);
    case QueryPlan::Anchor::kProperty:
      return graph.find(plan.label, plan.property_key,
                        *pattern.properties.find(plan.property_key));
  }
  return {};
}

/// Conditions attached to the node-pattern position they prune, preserving
/// the historical semantics: each condition applies to the *first* pattern
/// whose var matches (vars are normally unique per query).
std::vector<std::vector<const Condition*>> conditions_by_position(const Query& query) {
  std::vector<std::vector<const Condition*>> by_pos(query.nodes.size());
  for (const Condition& cond : query.conditions) {
    for (std::size_t i = 0; i < query.nodes.size(); ++i) {
      if (query.nodes[i].var == cond.var) {
        by_pos[i].push_back(&cond);
        break;
      }
    }
  }
  return by_pos;
}

/// The query with its path flipped end-to-end: node patterns reversed,
/// edges reversed with their directions mirrored (variable-length bounds
/// carry over — a simple path reverses into a simple path). Matching the
/// reversed query and flipping each found path yields exactly the original
/// matches.
Query reverse_query(const Query& query) {
  Query reversed;
  reversed.nodes.assign(query.nodes.rbegin(), query.nodes.rend());
  reversed.edges.reserve(query.edges.size());
  for (auto it = query.edges.rbegin(); it != query.edges.rend(); ++it) {
    EdgePattern edge = *it;
    if (edge.direction == Direction::kOut) {
      edge.direction = Direction::kIn;
    } else if (edge.direction == Direction::kIn) {
      edge.direction = Direction::kOut;
    }
    reversed.edges.push_back(edge);
  }
  reversed.conditions = query.conditions;
  reversed.returns = query.returns;
  reversed.order_by = query.order_by;
  reversed.skip = query.skip;
  reversed.limit = query.limit;
  return reversed;
}

/// The oracle's expansion: depth-first, no pushdown, DFS variable-length
/// enumeration.
void extend_brute(const PropertyGraph& graph, const Query& query, std::size_t depth,
                  std::vector<NodeId>& path, std::set<std::vector<NodeId>>& results) {
  if (depth == query.nodes.size()) {
    results.insert(path);
    return;
  }
  const EdgePattern& edge = query.edges[depth - 1];
  const std::vector<NodeId> nexts =
      edge.variable ? var_targets_brute(graph, path.back(), edge)
                    : graph.neighbors(path.back(), edge.direction, edge.type);
  for (const NodeId next : nexts) {
    if (!node_matches(graph, next, query.nodes[depth])) continue;
    path.push_back(next);
    extend_brute(graph, query, depth + 1, path, results);
    path.pop_back();
  }
}

// ----------------------------------------------------- rows & aggregation

/// Variables the result actually consumes: everything mentioned in the
/// RETURN list (aggregate inputs included). Rows are deduplicated on this
/// projection, so count(x) counts *distinct* bindings of x per group.
std::set<std::string> relevant_vars(const Query& query) {
  std::set<std::string> vars;
  for (const ReturnItem& item : query.returns) vars.insert(item.var);
  return vars;
}

/// The oracle's deterministic row assembly: paths are in original pattern
/// orientation, rows ordered by path order, deduplicated on the projected
/// bindings.
std::vector<Row> rows_from_paths(const Query& query,
                                 const std::set<std::vector<NodeId>>& paths) {
  const std::set<std::string> vars = relevant_vars(query);
  std::vector<Row> rows;
  std::set<Row> seen;
  for (const std::vector<NodeId>& path : paths) {
    Row row;
    for (std::size_t i = 0; i < query.nodes.size(); ++i) {
      const std::string& var = query.nodes[i].var;
      if (var.empty() || vars.count(var) == 0) continue;
      row[var] = path[i];
    }
    if (seen.insert(row).second) rows.push_back(std::move(row));
  }
  return rows;
}

json::Value node_property(const PropertyGraph& graph, NodeId id, const std::string& key) {
  const Node* n = graph.node(id);
  const json::Value* v = n != nullptr ? n->properties.find(key) : nullptr;
  return v != nullptr ? *v : json::Value(nullptr);
}

/// Streaming accumulator for one aggregate column: rows fold in one at a
/// time, each by the node its aggregated variable binds.
struct AggAccumulator {
  std::int64_t count = 0;
  json::Value extreme;          // min/max; null until the first real value
  bool has_extreme = false;
  double sum = 0.0;
  std::int64_t numeric = 0;

  void fold(const ReturnItem& item, const PropertyGraph& graph, NodeId node) {
    ++count;
    if (item.agg == ReturnItem::Agg::kCount) return;
    const json::Value v = node_property(graph, node, item.key);
    if (v.is_null()) return;
    if (item.agg == ReturnItem::Agg::kAvg) {
      if (v.is_number()) {
        sum += v.as_double();
        ++numeric;
      }
      return;
    }
    const bool better = !has_extreme ||
                        (item.agg == ReturnItem::Agg::kMin
                             ? compare_values(v, extreme) < 0
                             : compare_values(v, extreme) > 0);
    if (better) {
      extreme = v;
      has_extreme = true;
    }
  }

  [[nodiscard]] json::Value result(const ReturnItem& item) const {
    switch (item.agg) {
      case ReturnItem::Agg::kCount: return json::Value(count);
      case ReturnItem::Agg::kMin:
      case ReturnItem::Agg::kMax:
        return has_extreme ? extreme : json::Value(nullptr);
      case ReturnItem::Agg::kAvg:
        return numeric > 0 ? json::Value(sum / static_cast<double>(numeric))
                           : json::Value(nullptr);
      case ReturnItem::Agg::kNone: break;
    }
    return json::Value(nullptr);
  }
};

std::vector<ResultSet::Column> result_columns(const Query& query) {
  std::vector<ResultSet::Column> columns;
  columns.reserve(query.returns.size());
  for (const ReturnItem& item : query.returns) {
    columns.push_back({item.display(), item.agg == ReturnItem::Agg::kNone});
  }
  return columns;
}

std::vector<std::vector<json::Value>> project_rows(const Query& query,
                                                   const std::vector<Row>& rows) {
  std::vector<std::vector<json::Value>> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<json::Value> cells;
    cells.reserve(query.returns.size());
    for (const ReturnItem& item : query.returns) {
      cells.emplace_back(static_cast<std::int64_t>(row.at(item.var)));
    }
    out.push_back(std::move(cells));
  }
  return out;
}

// ----------------------------------------------------- ORDER BY / LIMIT

/// The sort value of one output row under one key. An aggregate key reads
/// its column; `var` reads the node-id cell; `var.key` resolves the
/// property of the bound node. This function *is* the ORDER BY spec — the
/// executor and the oracle both sort with it.
json::Value sort_value(const PropertyGraph& graph, const Query& query,
                       const SortKey& key, const std::vector<json::Value>& row) {
  for (std::size_t c = 0; c < query.returns.size(); ++c) {
    const ReturnItem& item = query.returns[c];
    const bool matches = key.ref.agg == ReturnItem::Agg::kNone
                             ? item.agg == ReturnItem::Agg::kNone && item.var == key.ref.var
                             : item == key.ref;
    if (!matches) continue;
    if (key.ref.agg != ReturnItem::Agg::kNone || key.property.empty()) return row[c];
    return node_property(graph, static_cast<NodeId>(row[c].as_int()), key.property);
  }
  return json::Value(nullptr);  // unreachable: the parser validated the key
}

/// Strict deterministic comparator: the ORDER BY keys, then the base-order
/// index — so ties preserve the engine's deterministic base order and the
/// sort is total.
struct RowOrder {
  const PropertyGraph& graph;
  const Query& query;
  const std::vector<std::vector<json::Value>>& rows;

  bool operator()(std::size_t a, std::size_t b) const {
    for (const SortKey& key : query.order_by) {
      const int c = compare_values(sort_value(graph, query, key, rows[a]),
                                   sort_value(graph, query, key, rows[b]));
      if (c != 0) return key.descending ? c > 0 : c < 0;
    }
    return a < b;
  }
};

/// ORDER BY + SKIP/LIMIT over output rows by a full sort: the oracle's
/// pagination, which TableSink's bounded heap reproduces.
std::vector<std::vector<json::Value>> order_and_page(
    const PropertyGraph& graph, const Query& query,
    std::vector<std::vector<json::Value>> rows) {
  std::vector<std::size_t> index(rows.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  if (!query.order_by.empty()) {
    std::sort(index.begin(), index.end(), RowOrder{graph, query, rows});
  }
  std::vector<std::vector<json::Value>> out;
  for (std::size_t i = query.skip; i < index.size() && out.size() < query.limit; ++i) {
    out.push_back(std::move(rows[index[i]]));
  }
  return out;
}

/// Where the executor's finished tables end: output rows arrive in base
/// order and leave ordered and paged exactly as order_and_page leaves them.
/// Without ORDER BY, SKIP and LIMIT apply as rows arrive. With ORDER BY, a
/// max-heap keeps the best SKIP+LIMIT rows seen so far, each with its sort
/// values resolved once; ties break on the row's base-order index.
class TableSink {
 public:
  TableSink(const PropertyGraph& graph, const Query& query)
      : graph_(graph),
        query_(query),
        keep_(query.limit > kNoLimit - query.skip ? kNoLimit : query.skip + query.limit) {}

  void add(std::vector<json::Value> cells) {
    const std::size_t index = arrived_++;
    if (query_.order_by.empty()) {
      if (index >= query_.skip && rows_.size() < query_.limit) {
        rows_.push_back(std::move(cells));
      }
      return;
    }
    if (keep_ == 0) return;
    Ranked row{{}, index, std::move(cells)};
    for (const SortKey& key : query_.order_by) {
      row.keys.push_back(sort_value(graph_, query_, key, row.cells));
    }
    const Before before{query_};
    if (heap_.size() == keep_) {
      if (!before(row, heap_.front())) return;
      std::pop_heap(heap_.begin(), heap_.end(), before);
      heap_.pop_back();
    }
    heap_.push_back(std::move(row));
    std::push_heap(heap_.begin(), heap_.end(), before);
  }

  /// The ordered, paged table. Called once, after the last add().
  std::vector<std::vector<json::Value>> finish() {
    if (query_.order_by.empty()) return std::move(rows_);
    std::sort_heap(heap_.begin(), heap_.end(), Before{query_});
    std::vector<std::vector<json::Value>> out;
    for (std::size_t i = query_.skip; i < heap_.size(); ++i) {
      out.push_back(std::move(heap_[i].cells));
    }
    return out;
  }

 private:
  struct Ranked {
    std::vector<json::Value> keys;  ///< one sort value per ORDER BY key
    std::size_t index = 0;          ///< position in base order
    std::vector<json::Value> cells;
  };

  /// RowOrder's strict total order, over the resolved sort values.
  struct Before {
    const Query& query;
    bool operator()(const Ranked& a, const Ranked& b) const {
      for (std::size_t k = 0; k < query.order_by.size(); ++k) {
        const int c = compare_values(a.keys[k], b.keys[k]);
        if (c != 0) return query.order_by[k].descending ? c > 0 : c < 0;
      }
      return a.index < b.index;
    }
  };

  const PropertyGraph& graph_;
  const Query& query_;
  std::size_t keep_;  ///< SKIP+LIMIT, saturated
  std::size_t arrived_ = 0;
  std::vector<std::vector<json::Value>> rows_;  ///< without ORDER BY
  std::vector<Ranked> heap_;                    ///< with ORDER BY
};

// ----------------------------------------------------------- oracle match

Expected<std::set<std::vector<NodeId>>> match_brute(const PropertyGraph& graph,
                                                    const Query& query) {
  // Full scan, forward orientation, no index, no pushdown.
  std::set<std::vector<NodeId>> paths;
  for (const NodeId start : graph.node_ids()) {
    if (!node_matches(graph, start, query.nodes.front())) continue;
    std::vector<NodeId> path{start};
    extend_brute(graph, query, 1, path, paths);
  }
  // Post-filter WHERE conditions over complete paths.
  const std::vector<std::vector<const Condition*>> conds = conditions_by_position(query);
  for (auto it = paths.begin(); it != paths.end();) {
    bool keep = true;
    for (std::size_t i = 0; i < query.nodes.size() && keep; ++i) {
      for (const Condition* c : conds[i]) {
        if (!condition_holds_impl(graph, (*it)[i], *c)) {
          keep = false;
          break;
        }
      }
    }
    it = keep ? std::next(it) : paths.erase(it);
  }
  return paths;
}

Expected<std::vector<Row>> binding_rows(const PropertyGraph& graph, const Query& query) {
  if (query.nodes.empty()) return Error{"query has no node patterns", "query"};
  Expected<std::set<std::vector<NodeId>>> paths = match_brute(graph, query);
  if (!paths.ok()) return paths.error();
  return rows_from_paths(query, paths.value());
}

/// The binding-level API over a table evaluator: each row's node-id cells
/// keyed by their RETURN variable.
Expected<std::vector<Row>> bindings(const PropertyGraph& graph, const Query& query,
                                    Expected<ResultSet> (*evaluate)(const PropertyGraph&,
                                                                    const Query&)) {
  if (query.has_aggregate()) {
    return Error{"query aggregates; use the table-level API for a value table", "query"};
  }
  Expected<ResultSet> table = evaluate(graph, query);
  if (!table.ok()) return table.error();
  std::vector<Row> out;
  out.reserve(table.value().rows.size());
  for (const std::vector<json::Value>& cells : table.value().rows) {
    Row row;
    for (std::size_t c = 0; c < query.returns.size(); ++c) {
      row[query.returns[c].var] = static_cast<NodeId>(cells[c].as_int());
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

namespace {

/// Evaluates one WHERE condition against a node's property value.
/// Missing properties never match; numbers compare numerically, strings
/// lexicographically; cross-type comparisons are false.
bool condition_holds_impl(const PropertyGraph& graph, NodeId id, const Condition& cond) {
  const Node* n = graph.node(id);
  if (n == nullptr) return false;
  const json::Value* actual = n->properties.find(cond.key);
  if (actual == nullptr) return false;

  int cmp = 0;  // -1 / 0 / +1, valid only when comparable
  bool comparable = false;
  if (actual->is_number() && cond.literal.is_number()) {
    const double a = actual->as_double();
    const double b = cond.literal.as_double();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
    comparable = true;
  } else if (actual->is_string() && cond.literal.is_string()) {
    cmp = actual->as_string().compare(cond.literal.as_string());
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    comparable = true;
  } else if (actual->is_bool() && cond.literal.is_bool()) {
    cmp = static_cast<int>(actual->as_bool()) - static_cast<int>(cond.literal.as_bool());
    comparable = true;
  }
  if (!comparable) {
    // Only (in)equality is meaningful across exotic types.
    if (cond.op == Condition::Op::kEq) return *actual == cond.literal;
    if (cond.op == Condition::Op::kNe) return !(*actual == cond.literal);
    return false;
  }
  switch (cond.op) {
    case Condition::Op::kEq: return cmp == 0;
    case Condition::Op::kNe: return cmp != 0;
    case Condition::Op::kLt: return cmp < 0;
    case Condition::Op::kLe: return cmp <= 0;
    case Condition::Op::kGt: return cmp > 0;
    case Condition::Op::kGe: return cmp >= 0;
  }
  return false;
}

}  // namespace

Expected<Query> parse_query(const std::string& text) { return Parser(text).run(); }

// ------------------------------------------------------------ QueryCursor

/// Cursor state: the one planned matcher and the sinks over its rows.
///
/// The matcher is an explicit-stack depth-first walk over the pattern in
/// the plan's orientation. frames[d] holds the sorted-unique candidate
/// list for walked position d given path[0..d-1], so complete paths pop
/// out in ascending lexicographic order. Walking forward, that is the
/// canonical base order; a reversed walk's paths are flipped and sorted
/// into it before any sink sees them. Rows are those paths deduplicated
/// on the projected bindings, the first in base order kept.
///
/// A `lazy` cursor (no aggregate, no ORDER BY, forward walk) pages rows
/// out as the walk finds them. Every other cursor runs the walk to the
/// end on open — through per-group accumulators for aggregates, then the
/// TableSink for ORDER BY/SKIP/LIMIT — and next() slices that table.
struct QueryCursor::Impl {
  const PropertyGraph* graph = nullptr;
  Query query;           ///< as written: projection and sinks read it
  Query reversed_query;  ///< the walked pattern when `reversed`
  bool reversed = false;
  std::vector<ResultSet::Column> columns;
  bool lazy = false;
  bool exhausted = false;

  // --- the walk
  struct Frame {
    std::vector<NodeId> nexts;
    std::size_t cursor = 0;
  };
  /// WHERE conditions per walked position: each sits at the first written
  /// occurrence of its variable, mirrored when the walk is reversed.
  std::vector<std::vector<const Condition*>> conds;
  std::vector<Frame> frames;
  std::vector<NodeId> path;

  // --- rows; positions index paths in written orientation
  /// Projection pushdown: per RETURN item, the pattern position whose
  /// binding becomes the cell (the *last* occurrence of the item's var,
  /// matching rows_from_paths' overwrite semantics).
  std::vector<std::size_t> return_positions;
  /// Dedup key positions: the distinct positions return_positions reads,
  /// ascending. Rows with equal bindings there are one row.
  std::vector<std::size_t> dedup_positions;
  /// False when the dedup key covers every pattern position — then paths
  /// and rows are in bijection and the seen-set is skipped entirely.
  bool needs_dedup = false;
  std::set<std::vector<NodeId>> seen;

  // --- lazy paging
  std::size_t skip_remaining = 0;
  std::size_t limit_remaining = kNoLimit;
  /// One-row lookahead: next_lazy() walks one row past the page so
  /// done() is exact when a page drains the result — no trailing empty
  /// page (and no extra HTTP round-trip) just to learn the walk is over.
  std::optional<std::vector<json::Value>> pending;

  // --- finished table
  std::vector<std::vector<json::Value>> table;
  std::size_t offset = 0;

  [[nodiscard]] const Query& walked() const { return reversed ? reversed_query : query; }

  /// Sorted-unique expansion candidates for walked position `pos` from
  /// `from`. Pattern/WHERE admissibility is checked at pick time, not
  /// here, so generation stays a sort of the raw neighbor list.
  [[nodiscard]] std::vector<NodeId> children(std::size_t pos, NodeId from) const {
    const EdgePattern& edge = walked().edges[pos - 1];
    std::vector<NodeId> nexts =
        edge.variable ? var_targets_planned(*graph, from, edge)
                      : graph->neighbors(from, edge.direction, edge.type);
    std::sort(nexts.begin(), nexts.end());
    nexts.erase(std::unique(nexts.begin(), nexts.end()), nexts.end());
    return nexts;
  }

  /// Whether `node` can occupy walked position `pos`: the pattern's
  /// labels/properties plus every WHERE condition bound to the position,
  /// so non-matching paths are pruned during the walk.
  [[nodiscard]] bool admissible(std::size_t pos, NodeId node) const {
    if (!node_matches(*graph, node, walked().nodes[pos])) return false;
    return std::none_of(conds[pos].begin(), conds[pos].end(), [&](const Condition* c) {
      return !condition_holds_impl(*graph, node, *c);
    });
  }

  /// Advances the walk to its next complete path, left in `path`; false
  /// once the walk is over.
  bool next_path() {
    while (!frames.empty()) {
      const std::size_t depth = frames.size() - 1;
      Frame& top = frames.back();
      if (top.cursor == top.nexts.size()) {
        frames.pop_back();
        continue;
      }
      const NodeId node = top.nexts[top.cursor++];
      if (!admissible(depth, node)) continue;
      path.resize(depth);
      path.push_back(node);
      if (depth + 1 == walked().nodes.size()) return true;
      frames.push_back(Frame{children(depth + 1, node), 0});
    }
    return false;
  }

  /// False when `p` projects onto a row an earlier path already produced.
  bool fresh(const std::vector<NodeId>& p) {
    if (!needs_dedup) return true;
    std::vector<NodeId> key;
    key.reserve(dedup_positions.size());
    for (const std::size_t pos : dedup_positions) key.push_back(p[pos]);
    return seen.insert(std::move(key)).second;
  }

  [[nodiscard]] std::vector<json::Value> cells(const std::vector<NodeId>& p) const {
    std::vector<json::Value> out;
    out.reserve(return_positions.size());
    for (const std::size_t pos : return_positions) {
      out.emplace_back(static_cast<std::int64_t>(p[pos]));
    }
    return out;
  }

  /// Hands the path behind every row, in base order and written
  /// orientation, to `sink`.
  template <typename Sink>
  void for_each_row(Sink&& sink) {
    std::vector<std::vector<NodeId>> flipped;  // a reversed walk's paths
    while (next_path()) {
      if (reversed) {
        flipped.emplace_back(path.rbegin(), path.rend());
      } else if (fresh(path)) {
        sink(path);
      }
    }
    std::sort(flipped.begin(), flipped.end());
    for (const std::vector<NodeId>& p : flipped) {
      if (fresh(p)) sink(p);
    }
  }

  /// Runs the walk to the end through the sinks: the finished table.
  [[nodiscard]] std::vector<std::vector<json::Value>> materialize() {
    TableSink sink(*graph, query);
    const std::vector<ReturnItem>& items = query.returns;
    if (!query.has_aggregate()) {
      for_each_row([&](const std::vector<NodeId>& p) { sink.add(cells(p)); });
      return sink.finish();
    }
    // Group rows by the un-aggregated RETURN items (the key holds one slot
    // per item; aggregate slots stay 0) and fold every aggregate column, in
    // base order so min/max ties and floating-point sums come out as the
    // oracle's. Groups leave in ascending key order; with no grouping item
    // and no rows, aggregates still produce one row (count() over nothing
    // is 0).
    const auto plain = [&](std::size_t c) { return items[c].agg == ReturnItem::Agg::kNone; };
    std::map<std::vector<NodeId>, std::vector<AggAccumulator>> groups;
    for_each_row([&](const std::vector<NodeId>& p) {
      std::vector<NodeId> key(items.size());
      for (std::size_t c = 0; c < items.size(); ++c) {
        if (plain(c)) key[c] = p[return_positions[c]];
      }
      std::vector<AggAccumulator>& accs =
          groups.try_emplace(std::move(key), items.size()).first->second;
      for (std::size_t c = 0; c < items.size(); ++c) {
        if (!plain(c)) accs[c].fold(items[c], *graph, p[return_positions[c]]);
      }
    });
    bool grouped = false;
    for (std::size_t c = 0; c < items.size(); ++c) grouped = grouped || plain(c);
    if (groups.empty() && !grouped) {
      groups.try_emplace(std::vector<NodeId>(items.size()), items.size());
    }
    for (const auto& [key, accs] : groups) {
      std::vector<json::Value> row;
      row.reserve(items.size());
      for (std::size_t c = 0; c < items.size(); ++c) {
        row.push_back(plain(c) ? json::Value(static_cast<std::int64_t>(key[c]))
                               : accs[c].result(items[c]));
      }
      sink.add(std::move(row));
    }
    return sink.finish();
  }

  [[nodiscard]] std::vector<std::vector<json::Value>> next_lazy(std::size_t max_rows) {
    std::vector<std::vector<json::Value>> out;
    if (pending.has_value()) {
      out.push_back(std::move(*pending));
      pending.reset();
    }
    // Walk one row past the page (<= instead of <) so a page that exactly
    // drains the result still learns there is nothing left. The overflow
    // row is stashed in `pending` for the next call. Unbounded drains
    // (max_rows == SIZE_MAX) cannot overflow the +1 because the loop exits
    // on walk/limit exhaustion long before out.size() wraps.
    while (out.size() <= max_rows && limit_remaining > 0 && next_path()) {
      if (!fresh(path)) continue;
      if (skip_remaining > 0) {
        --skip_remaining;
        continue;
      }
      out.push_back(cells(path));
      --limit_remaining;
    }
    if (out.size() > max_rows) {
      pending = std::move(out.back());
      out.pop_back();
    }
    if ((frames.empty() || limit_remaining == 0) && !pending.has_value()) {
      exhausted = true;
    }
    return out;
  }

  [[nodiscard]] std::vector<std::vector<json::Value>> next_table(std::size_t max_rows) {
    std::vector<std::vector<json::Value>> out;
    while (offset < table.size() && out.size() < max_rows) {
      out.push_back(std::move(table[offset++]));
    }
    if (offset == table.size()) exhausted = true;
    return out;
  }
};

QueryCursor::QueryCursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
QueryCursor::QueryCursor(QueryCursor&&) noexcept = default;
QueryCursor& QueryCursor::operator=(QueryCursor&&) noexcept = default;
QueryCursor::~QueryCursor() = default;

const std::vector<ResultSet::Column>& QueryCursor::columns() const {
  return impl_->columns;
}

bool QueryCursor::done() const { return impl_->exhausted; }

bool QueryCursor::streaming() const { return impl_->lazy; }

std::vector<std::vector<json::Value>> QueryCursor::next(std::size_t max_rows) {
  if (impl_->exhausted || max_rows == 0) return {};
  return impl_->lazy ? impl_->next_lazy(max_rows) : impl_->next_table(max_rows);
}

Expected<QueryCursor> QueryCursor::open(const PropertyGraph& graph, const Query& query) {
  if (query.nodes.empty()) return Error{"query has no node patterns", "query"};
  auto impl = std::make_unique<Impl>();
  impl->graph = &graph;
  impl->query = query;
  impl->columns = result_columns(query);
  const Query& q = impl->query;

  // The one orientation decision. A streamable query with a finite LIMIT
  // walks forward whatever the plan, so the walk stops once the page is
  // full; an unbounded one visits every match either way and walks in the
  // plan's orientation, streaming only when that is forward.
  const bool streamable = !q.has_aggregate() && q.order_by.empty();
  const QueryPlan plan = streamable && q.limit != kNoLimit
                             ? plan_anchor(graph, q.nodes.front())
                             : explain_query(graph, q);
  impl->reversed = plan.reversed;
  impl->lazy = streamable && !plan.reversed;
  if (impl->reversed) impl->reversed_query = reverse_query(q);
  impl->conds = conditions_by_position(q);
  if (impl->reversed) std::reverse(impl->conds.begin(), impl->conds.end());

  // Projection pushdown bookkeeping: map RETURN items and the dedup key
  // to pattern positions once, so emitting a row is a handful of array
  // reads instead of a Row map.
  for (const ReturnItem& item : q.returns) {
    std::size_t pos = q.nodes.size();
    for (std::size_t i = 0; i < q.nodes.size(); ++i) {
      if (q.nodes[i].var == item.var) pos = i;
    }
    if (pos == q.nodes.size()) {
      return Error{"RETURN references unbound variable '" + item.var + "'", "query"};
    }
    impl->return_positions.push_back(pos);
  }
  std::vector<std::size_t>& dedup = impl->dedup_positions;
  dedup = impl->return_positions;
  std::sort(dedup.begin(), dedup.end());
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  impl->needs_dedup = dedup.size() != q.nodes.size();

  impl->frames.reserve(q.nodes.size());
  impl->path.reserve(q.nodes.size());
  impl->frames.push_back(
      Impl::Frame{anchor_pool(graph, impl->walked().nodes.front(), plan), 0});
  impl->skip_remaining = q.skip;
  impl->limit_remaining = q.limit;
  if (!impl->lazy) impl->table = impl->materialize();
  impl->exhausted = impl->lazy ? q.limit == 0 : impl->table.empty();
  return QueryCursor(std::move(impl));
}

Expected<QueryCursor> QueryCursor::open(const PropertyGraph& graph,
                                        const std::string& text) {
  Expected<Query> query = parse_query(text);
  if (!query.ok()) return query.error();
  return open(graph, query.value());
}

QueryPlan explain_query(const PropertyGraph& graph, const Query& query) {
  if (query.nodes.empty()) return QueryPlan{};
  QueryPlan front = estimate_orientation(graph, query);
  if (query.nodes.size() == 1) return front;
  QueryPlan back = estimate_orientation(graph, reverse_query(query));
  if (back.estimated_cost < front.estimated_cost) {
    back.reversed = true;
    // The cardinality of the whole path does not depend on which end the
    // match started from; report the chosen orientation's walk.
    return back;
  }
  return front;
}

Expected<ResultSet> execute_query(const PropertyGraph& graph, const Query& query) {
  Expected<QueryCursor> cursor = QueryCursor::open(graph, query);
  if (!cursor.ok()) return cursor.error();
  ResultSet result;
  result.columns = cursor.value().columns();
  result.rows = cursor.value().next(kNoLimit);
  return result;
}

Expected<ResultSet> execute_query(const PropertyGraph& graph, const std::string& text) {
  Expected<Query> query = parse_query(text);
  if (!query.ok()) return query.error();
  return execute_query(graph, query.value());
}

Expected<ResultSet> execute_query_brute_force(const PropertyGraph& graph,
                                              const Query& query) {
  Expected<std::vector<Row>> rows = binding_rows(graph, query);
  if (!rows.ok()) return rows.error();
  ResultSet result;
  result.columns = result_columns(query);
  // Full materialization: group row vectors first, aggregate second, sort
  // everything third. The ablation partner of the executor's streaming
  // accumulators and bounded ORDER BY heap.
  std::vector<std::vector<json::Value>> cells;
  if (query.has_aggregate()) {
    std::vector<const ReturnItem*> group_items;
    for (const ReturnItem& item : query.returns) {
      if (item.agg == ReturnItem::Agg::kNone) group_items.push_back(&item);
    }
    std::map<std::vector<NodeId>, std::vector<Row>> groups;
    for (const Row& row : rows.value()) {
      std::vector<NodeId> key;
      for (const ReturnItem* item : group_items) key.push_back(row.at(item->var));
      groups[std::move(key)].push_back(row);
    }
    if (groups.empty() && group_items.empty()) groups[{}] = {};
    for (const auto& [key, members] : groups) {
      std::vector<json::Value> out;
      std::size_t group_cursor = 0;
      for (const ReturnItem& item : query.returns) {
        if (item.agg == ReturnItem::Agg::kNone) {
          out.emplace_back(static_cast<std::int64_t>(key[group_cursor++]));
          continue;
        }
        AggAccumulator acc;
        for (const Row& row : members) acc.fold(item, graph, row.at(item.var));
        out.push_back(acc.result(item));
      }
      cells.push_back(std::move(out));
    }
  } else {
    cells = project_rows(query, rows.value());
  }
  result.rows = order_and_page(graph, query, std::move(cells));
  return result;
}

Expected<std::vector<Row>> run_query(const PropertyGraph& graph, const Query& query) {
  return bindings(graph, query, execute_query);
}

Expected<std::vector<Row>> run_query_brute_force(const PropertyGraph& graph,
                                                 const Query& query) {
  return bindings(graph, query, execute_query_brute_force);
}

Expected<std::vector<Row>> run_query(const PropertyGraph& graph, const std::string& text) {
  Expected<Query> query = parse_query(text);
  if (!query.ok()) return query.error();
  return run_query(graph, query.value());
}

std::vector<ReachHop> var_length_reach(const PropertyGraph& graph, NodeId start,
                                       Direction direction, const std::string& type,
                                       std::size_t max_hops) {
  std::vector<ReachHop> result;
  if (graph.node(start) == nullptr || max_hops == 0) return result;
  std::set<NodeId> seen{start};
  std::deque<ReachHop> frontier{{start, 0, 0}};
  while (!frontier.empty()) {
    const ReachHop current = frontier.front();
    frontier.pop_front();
    if (current.depth == max_hops) continue;
    for (const EdgeId eid : graph.edges_of(current.node, direction)) {
      const Edge* e = graph.edge(eid);
      if (e == nullptr) continue;
      if (!type.empty() && e->type != type) continue;
      const NodeId next = e->from == current.node ? e->to : e->from;
      if (!seen.insert(next).second) continue;
      const ReachHop hop{next, current.depth + 1, eid};
      result.push_back(hop);
      frontier.push_back(hop);
    }
  }
  return result;
}

}  // namespace provml::graphstore
