// In-process labeled property graph — the storage engine behind the yProv
// service facade, substituting for the Neo4j back-end described in the
// paper (Fiore et al. 2023). Supports labeled nodes/edges with JSON
// properties, a (label, key, value) equality index, and BFS traversals.
//
// Node and edge ids are dense sequences 1, 2, 3, … in creation order.
//
// Concurrency contract: the graph carries no locks. Const members only
// read, so any number of readers may run together; a mutator needs the
// graph to itself. YProvService provides both with one shared_mutex.
//
// Labels and edge types are interned to small integer ids, every label
// keeps a posting list of its nodes, and the equality index is keyed on a
// structured (label_id, key, value) tuple — no string concatenation on
// any lookup. Posting lists are sorted flat vectors: ids only grow, so
// ingest only appends, and the rare out-of-order insert (set_property on
// an older node) or removal binary-searches. Each node's adjacency is one
// insertion-ordered vector of (edge type, edge id) per direction; a typed
// lookup filters it. Both keep the heap cost of a stored document close
// to the size of its own data.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "provml/common/expected.hpp"
#include "provml/json/value.hpp"

namespace provml::graphstore {

using NodeId = std::uint64_t;
using EdgeId = std::uint64_t;

struct Node {
  NodeId id = 0;
  std::set<std::string> labels;
  json::Object properties;
};

struct Edge {
  EdgeId id = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::string type;
  json::Object properties;
};

enum class Direction { kOut, kIn, kBoth };

class PropertyGraph {
 public:
  // -- mutation ------------------------------------------------------------
  NodeId add_node(std::set<std::string> labels, json::Object properties = {});
  [[nodiscard]] Expected<EdgeId> add_edge(NodeId from, NodeId to, std::string type,
                                          json::Object properties = {});
  [[nodiscard]] Status remove_node(NodeId id);  ///< also removes incident edges
  void set_property(NodeId id, const std::string& key, json::Value value);

  // -- lookup ----------------------------------------------------------------
  [[nodiscard]] const Node* node(NodeId id) const;
  [[nodiscard]] const Edge* edge(EdgeId id) const;
  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::size_t edge_count() const;

  /// All node ids, ascending.
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// All nodes carrying `label`, ascending.
  [[nodiscard]] std::vector<NodeId> nodes_with_label(const std::string& label) const;

  /// Indexed equality match: nodes with `label` whose property `key` equals
  /// `value`. The index is maintained incrementally on mutation.
  [[nodiscard]] std::vector<NodeId> find(const std::string& label, const std::string& key,
                                         const json::Value& value) const;

  /// First match (smallest id) or nullopt.
  [[nodiscard]] std::optional<NodeId> find_one(const std::string& label,
                                               const std::string& key,
                                               const json::Value& value) const;

  // -- planner statistics ------------------------------------------------------
  /// Posting-list size of `label` (0 when never seen). O(1).
  [[nodiscard]] std::size_t count_with_label(const std::string& label) const;

  /// Posting-list size of the (label, key, value) equality index entry
  /// without materializing the matches.
  [[nodiscard]] std::size_t count_with_property(const std::string& label,
                                                const std::string& key,
                                                const json::Value& value) const;

  /// Number of live edges carrying `type` (0 when never seen); maintained
  /// incrementally so the query planner can estimate per-type fan-out
  /// without touching the edge tables.
  [[nodiscard]] std::size_t count_with_edge_type(const std::string& type) const;

  /// Incident-edge count in the given direction. O(1).
  [[nodiscard]] std::size_t degree(NodeId id, Direction dir) const;

  // -- traversal -------------------------------------------------------------
  /// Incident edges in the given direction, insertion order (out before in
  /// for kBoth).
  [[nodiscard]] std::vector<EdgeId> edges_of(NodeId id, Direction dir) const;

  /// Adjacent node ids (optionally restricted to one edge type), in edge
  /// insertion order (out before in for kBoth).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId id, Direction dir,
                                              const std::string& edge_type = "") const;

  /// Every node reachable within `max_hops` BFS steps (excludes start).
  [[nodiscard]] std::vector<NodeId> reachable(NodeId start, Direction dir,
                                              std::size_t max_hops,
                                              const std::string& edge_type = "") const;

  /// Unweighted shortest path (node ids, start..goal inclusive), empty if
  /// unreachable.
  [[nodiscard]] std::vector<NodeId> shortest_path(NodeId start, NodeId goal,
                                                  Direction dir = Direction::kBoth) const;

 private:
  using LabelId = std::uint32_t;
  using TypeId = std::uint32_t;

  /// Composite equality-index key. Values compare with json::Value's deep
  /// equality, which distinguishes 1 / "1" / 1.0 exactly like the previous
  /// serialized-string key did (integers and doubles are distinct variant
  /// alternatives and serialize distinctly).
  struct PropKey {
    LabelId label = 0;
    std::string key;
    json::Value value;
    bool operator==(const PropKey& other) const {
      return label == other.label && key == other.key && value == other.value;
    }
  };
  struct PropKeyHash {
    std::size_t operator()(const PropKey& k) const;
  };

  /// One incident edge of a node, tagged with its interned type.
  struct AdjacentEdge {
    TypeId type = 0;
    EdgeId edge = 0;
  };
  /// A node's incident edges in one direction, insertion order.
  using Adjacency = std::vector<AdjacentEdge>;
  /// Node ids, ascending and unique.
  using Postings = std::vector<NodeId>;

  [[nodiscard]] std::optional<LabelId> label_id(const std::string& label) const;
  LabelId intern_label(const std::string& label);
  [[nodiscard]] std::optional<TypeId> type_id(const std::string& type) const;
  TypeId intern_type(const std::string& type);

  void index_node(const Node& n);
  void unindex_node(const Node& n);
  void unlink_edge(const Edge& e);

  [[nodiscard]] const Adjacency* adjacency(NodeId id, bool outgoing) const;

  std::unordered_map<NodeId, Node> nodes_;
  std::unordered_map<EdgeId, Edge> edges_;
  std::unordered_map<NodeId, Adjacency> out_;
  std::unordered_map<NodeId, Adjacency> in_;
  std::vector<Postings> label_index_;     ///< postings by LabelId
  std::vector<std::size_t> type_counts_;  ///< live-edge counts by TypeId
  std::unordered_map<PropKey, Postings, PropKeyHash> prop_index_;
  std::unordered_map<std::string, LabelId> label_ids_;
  std::unordered_map<std::string, TypeId> type_ids_;
  NodeId next_node_ = 1;
  EdgeId next_edge_ = 1;
};

/// GraphViz DOT rendering of the whole graph: node labels prefer the
/// "prov_id" property (falling back to the numeric id), edge labels show
/// the edge type, node shape/color follow the PROV convention when the
/// node carries an Entity/Activity/Agent label.
[[nodiscard]] std::string to_dot(const PropertyGraph& graph);

}  // namespace provml::graphstore
