// In-process labeled property graph — the storage engine behind the yProv
// service facade, substituting for the Neo4j back-end described in the
// paper (Fiore et al. 2023). Supports labeled nodes/edges with JSON
// properties, a (label, key, value) equality index, and BFS traversals.
//
// Internals are built for a read-dominated service under concurrent
// mutation: the engine is *sharded*. Every table — nodes, edges,
// adjacency, per-label posting lists, the equality index, per-edge-type
// counts — is partitioned into a power-of-two number of shards, and ids
// encode their home shard in the low bits:
//
//   id = (per_shard_sequence << shard_bits) | shard        shard = id & mask
//
// so routing any id to its tables is one AND. A single-shard graph
// (the default) allocates ids 1, 2, 3, … exactly as the pre-sharding
// engine did. Scoped allocation (`shard_for_scope`) lets an ingest layer
// place one document's whole subgraph in one shard, which is what makes
// striped service locking and parallel bulk ingest possible: writers to
// different shards touch disjoint tables.
//
// Concurrency contract: the graph itself carries no per-shard locks —
// callers synchronize shard access externally (YProvService stripes one
// shared_mutex per shard). Two mutators may run concurrently iff they
// touch different shards; note that add_edge/remove_node touch the shards
// of *both* endpoints, so concurrent mutators must stick to same-shard
// edges (ingest-placed documents do by construction). Label/edge-type
// interning is shared state and is internally synchronized with its own
// reader/writer lock, so cross-shard writers may intern concurrently.
//
// Labels and edge types are interned to small integer ids, every label
// keeps a posting list of its nodes per shard, and the equality index is
// keyed on a structured (label_id, key, value) tuple — no string
// concatenation on any lookup. Posting lists are sorted flat vectors: ids
// grow within a shard, so ingest only appends, and the rare out-of-order
// insert (set_property on an older node) or removal binary-searches. Each
// node's adjacency is one insertion-ordered vector of (edge type, edge id)
// per direction; a typed lookup filters it. Both keep the heap cost of a
// stored document close to the size of its own data.
// Posting-list sizes aggregate across shards behind the same O(shards)
// planner API (`count_with_label` & co.), so the query planner and both
// matchers are unaffected by the partitioning.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
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
  /// `shard_count` is rounded up to a power of two and clamped to
  /// [1, kMaxShards]. One shard (the default) reproduces the unsharded
  /// engine bit-for-bit, ids included.
  explicit PropertyGraph(std::size_t shard_count = 1);

  static constexpr std::size_t kMaxShards = 256;

  // Movable (rebuilds and load() swap graphs); not copyable — the interner
  // owns a mutex.
  PropertyGraph(PropertyGraph&&) noexcept = default;
  PropertyGraph& operator=(PropertyGraph&&) noexcept = default;

  // -- sharding --------------------------------------------------------------
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Home shard of a node or edge id. O(1), a bitmask.
  [[nodiscard]] std::size_t shard_of(std::uint64_t id) const {
    return static_cast<std::size_t>(id & shard_mask_);
  }
  /// Deterministic shard for a scope key (a document name): FNV-1a masked
  /// to the shard count. Ingest places a document's whole subgraph here.
  [[nodiscard]] std::size_t shard_for_scope(const std::string& scope) const;

  /// Pre-interns labels and edge types so subsequent concurrent mutators
  /// mostly take the interner's *shared* lock. Callers must hold every
  /// shard exclusively (it is a serial-prologue operation).
  void preintern(const std::vector<std::string>& labels,
                 const std::vector<std::string>& edge_types);

  // -- mutation ------------------------------------------------------------
  /// Adds a node to `shard` (clamped by mask). The default shard keeps the
  /// legacy single-shard call sites untouched.
  NodeId add_node(std::set<std::string> labels, json::Object properties = {},
                  std::size_t shard = 0);
  /// The edge lives in `from`'s shard; its adjacency entries live in the
  /// shards of both endpoints (same shard for ingest-placed documents).
  [[nodiscard]] Expected<EdgeId> add_edge(NodeId from, NodeId to, std::string type,
                                          json::Object properties = {});
  [[nodiscard]] Status remove_node(NodeId id);  ///< also removes incident edges
  void set_property(NodeId id, const std::string& key, json::Value value);

  // -- lookup ----------------------------------------------------------------
  [[nodiscard]] const Node* node(NodeId id) const;
  [[nodiscard]] const Edge* edge(EdgeId id) const;
  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::size_t edge_count() const;
  [[nodiscard]] std::size_t node_count_in_shard(std::size_t shard) const;
  [[nodiscard]] std::size_t edge_count_in_shard(std::size_t shard) const;

  /// All node ids, ascending.
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// All nodes carrying `label`, ascending.
  [[nodiscard]] std::vector<NodeId> nodes_with_label(const std::string& label) const;

  /// Indexed equality match: nodes with `label` whose property `key` equals
  /// `value`. The index is maintained incrementally on mutation.
  [[nodiscard]] std::vector<NodeId> find(const std::string& label, const std::string& key,
                                         const json::Value& value) const;

  /// The same equality match restricted to one shard's index — what a
  /// striped writer uses so it never reads tables another writer may be
  /// mutating.
  [[nodiscard]] std::vector<NodeId> find_in_shard(std::size_t shard,
                                                  const std::string& label,
                                                  const std::string& key,
                                                  const json::Value& value) const;

  /// First match (smallest id) or nullopt.
  [[nodiscard]] std::optional<NodeId> find_one(const std::string& label,
                                               const std::string& key,
                                               const json::Value& value) const;

  // -- planner statistics ------------------------------------------------------
  /// Posting-list size of `label` (0 when never seen), summed across
  /// shards. O(shards) hash lookups.
  [[nodiscard]] std::size_t count_with_label(const std::string& label) const;

  /// Posting-list size of the (label, key, value) equality index entry
  /// without materializing the matches, summed across shards.
  [[nodiscard]] std::size_t count_with_property(const std::string& label,
                                                const std::string& key,
                                                const json::Value& value) const;

  /// Number of live edges carrying `type` (0 when never seen), summed
  /// across shards; maintained incrementally so the query planner can
  /// estimate per-type fan-out without touching the edge tables.
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

  /// One partition: every table a mutator of this shard touches. No locks
  /// here — the caller stripes access per shard.
  struct Shard {
    std::unordered_map<NodeId, Node> nodes;
    std::unordered_map<EdgeId, Edge> edges;
    std::unordered_map<NodeId, Adjacency> out;
    std::unordered_map<NodeId, Adjacency> in;
    std::vector<Postings> label_index;     ///< postings by LabelId
    std::vector<std::size_t> type_counts;  ///< live-edge counts by TypeId
    std::unordered_map<PropKey, Postings, PropKeyHash> prop_index;
    NodeId next_node = 1;  ///< per-shard sequence (low bits carry the shard)
    EdgeId next_edge = 1;
  };

  /// Shared label/edge-type interning tables. The only cross-shard mutable
  /// state, guarded by its own reader/writer lock so concurrent writers to
  /// distinct shards may intern safely. Heap-allocated to keep the graph
  /// movable.
  struct Interner {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, LabelId> label_ids;
    std::unordered_map<std::string, TypeId> type_ids;
  };

  [[nodiscard]] std::uint64_t make_id(std::size_t shard, std::uint64_t seq) const {
    return (seq << shard_bits_) | static_cast<std::uint64_t>(shard);
  }

  [[nodiscard]] std::optional<LabelId> label_id(const std::string& label) const;
  LabelId intern_label(const std::string& label);
  [[nodiscard]] std::optional<TypeId> type_id(const std::string& type) const;
  TypeId intern_type(const std::string& type);

  void index_node(Shard& shard, const Node& n);
  void unindex_node(Shard& shard, const Node& n);
  void unlink_edge(const Edge& e);

  [[nodiscard]] const Adjacency* adjacency(NodeId id, bool outgoing) const;

  std::unique_ptr<Interner> interner_;
  std::vector<Shard> shards_;
  std::uint32_t shard_bits_ = 0;
  std::uint64_t shard_mask_ = 0;
};

/// GraphViz DOT rendering of the whole graph: node labels prefer the
/// "prov_id" property (falling back to the numeric id), edge labels show
/// the edge type, node shape/color follow the PROV convention when the
/// node carries an Entity/Activity/Agent label.
[[nodiscard]] std::string to_dot(const PropertyGraph& graph);

}  // namespace provml::graphstore
