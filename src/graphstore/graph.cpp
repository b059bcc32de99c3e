#include "provml/graphstore/graph.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <mutex>

namespace provml::graphstore {
namespace {

inline std::size_t hash_mix(std::size_t seed, std::size_t h) {
  // boost::hash_combine's mixing constant; good enough for table keys.
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Structural hash over a JSON value. Consistent with json::Value equality:
/// values of different variant alternatives (1 vs 1.0 vs "1") never compare
/// equal, so hashing the type tag first is safe.
std::size_t hash_value(const json::Value& v) {
  std::size_t seed = static_cast<std::size_t>(v.type());
  switch (v.type()) {
    case json::Value::Type::kNull:
      break;
    case json::Value::Type::kBool:
      seed = hash_mix(seed, std::hash<bool>{}(v.as_bool()));
      break;
    case json::Value::Type::kInt:
      seed = hash_mix(seed, std::hash<std::int64_t>{}(v.as_int()));
      break;
    case json::Value::Type::kDouble:
      seed = hash_mix(seed, std::hash<double>{}(v.as_double()));
      break;
    case json::Value::Type::kString:
      seed = hash_mix(seed, std::hash<std::string>{}(v.as_string()));
      break;
    case json::Value::Type::kArray:
      for (const json::Value& item : v.as_array()) seed = hash_mix(seed, hash_value(item));
      break;
    case json::Value::Type::kObject:
      for (const auto& [key, value] : v.as_object()) {
        seed = hash_mix(seed, std::hash<std::string>{}(key));
        seed = hash_mix(seed, hash_value(value));
      }
      break;
  }
  return seed;
}

/// Adds `id` to ascending postings. Ingest allocates ids in ascending
/// order within a shard, so this is an append except when set_property
/// re-indexes an older node.
void insert_posting(std::vector<NodeId>& postings, NodeId id) {
  if (postings.empty() || postings.back() < id) {
    postings.push_back(id);
    return;
  }
  const auto it = std::lower_bound(postings.begin(), postings.end(), id);
  if (it == postings.end() || *it != id) postings.insert(it, id);
}

void erase_posting(std::vector<NodeId>& postings, NodeId id) {
  const auto it = std::lower_bound(postings.begin(), postings.end(), id);
  if (it != postings.end() && *it == id) postings.erase(it);
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::size_t PropertyGraph::PropKeyHash::operator()(const PropKey& k) const {
  std::size_t seed = std::hash<LabelId>{}(k.label);
  seed = hash_mix(seed, std::hash<std::string>{}(k.key));
  return hash_mix(seed, hash_value(k.value));
}

PropertyGraph::PropertyGraph(std::size_t shard_count)
    : interner_(std::make_unique<Interner>()) {
  if (shard_count < 1) shard_count = 1;
  if (shard_count > kMaxShards) shard_count = kMaxShards;
  std::size_t rounded = 1;
  std::uint32_t bits = 0;
  while (rounded < shard_count) {
    rounded <<= 1;
    ++bits;
  }
  shards_.resize(rounded);
  shard_bits_ = bits;
  shard_mask_ = static_cast<std::uint64_t>(rounded - 1);
}

std::size_t PropertyGraph::shard_for_scope(const std::string& scope) const {
  return static_cast<std::size_t>(fnv1a64(scope) & shard_mask_);
}

std::optional<PropertyGraph::LabelId> PropertyGraph::label_id(const std::string& label) const {
  const std::shared_lock<std::shared_mutex> lock(interner_->mutex);
  const auto it = interner_->label_ids.find(label);
  if (it == interner_->label_ids.end()) return std::nullopt;
  return it->second;
}

PropertyGraph::LabelId PropertyGraph::intern_label(const std::string& label) {
  {
    const std::shared_lock<std::shared_mutex> lock(interner_->mutex);
    const auto it = interner_->label_ids.find(label);
    if (it != interner_->label_ids.end()) return it->second;
  }
  const std::unique_lock<std::shared_mutex> lock(interner_->mutex);
  const auto it = interner_->label_ids.find(label);
  if (it != interner_->label_ids.end()) return it->second;  // raced another writer
  const LabelId id = static_cast<LabelId>(interner_->label_ids.size());
  interner_->label_ids.emplace(label, id);
  return id;
}

std::optional<PropertyGraph::TypeId> PropertyGraph::type_id(const std::string& type) const {
  const std::shared_lock<std::shared_mutex> lock(interner_->mutex);
  const auto it = interner_->type_ids.find(type);
  if (it == interner_->type_ids.end()) return std::nullopt;
  return it->second;
}

PropertyGraph::TypeId PropertyGraph::intern_type(const std::string& type) {
  {
    const std::shared_lock<std::shared_mutex> lock(interner_->mutex);
    const auto it = interner_->type_ids.find(type);
    if (it != interner_->type_ids.end()) return it->second;
  }
  const std::unique_lock<std::shared_mutex> lock(interner_->mutex);
  const auto it = interner_->type_ids.find(type);
  if (it != interner_->type_ids.end()) return it->second;  // raced another writer
  const TypeId id = static_cast<TypeId>(interner_->type_ids.size());
  interner_->type_ids.emplace(type, id);
  return id;
}

void PropertyGraph::preintern(const std::vector<std::string>& labels,
                              const std::vector<std::string>& edge_types) {
  const std::unique_lock<std::shared_mutex> lock(interner_->mutex);
  for (const std::string& label : labels) {
    if (interner_->label_ids.count(label) != 0) continue;
    interner_->label_ids.emplace(label, static_cast<LabelId>(interner_->label_ids.size()));
  }
  for (const std::string& type : edge_types) {
    if (interner_->type_ids.count(type) != 0) continue;
    interner_->type_ids.emplace(type, static_cast<TypeId>(interner_->type_ids.size()));
  }
}

void PropertyGraph::index_node(Shard& shard, const Node& n) {
  for (const std::string& label : n.labels) {
    const LabelId lid = intern_label(label);
    if (shard.label_index.size() <= lid) shard.label_index.resize(lid + 1);
    insert_posting(shard.label_index[lid], n.id);
    for (const auto& [key, value] : n.properties) {
      insert_posting(shard.prop_index[PropKey{lid, key, value}], n.id);
    }
  }
}

void PropertyGraph::unindex_node(Shard& shard, const Node& n) {
  for (const std::string& label : n.labels) {
    const std::optional<LabelId> lid = label_id(label);
    if (!lid) continue;
    if (*lid < shard.label_index.size()) erase_posting(shard.label_index[*lid], n.id);
    for (const auto& [key, value] : n.properties) {
      const auto it = shard.prop_index.find(PropKey{*lid, key, value});
      if (it != shard.prop_index.end()) {
        erase_posting(it->second, n.id);
        if (it->second.empty()) shard.prop_index.erase(it);
      }
    }
  }
}

NodeId PropertyGraph::add_node(std::set<std::string> labels, json::Object properties,
                               std::size_t shard) {
  shard &= static_cast<std::size_t>(shard_mask_);
  Shard& s = shards_[shard];
  const NodeId id = make_id(shard, s.next_node++);
  Node n{id, std::move(labels), std::move(properties)};
  index_node(s, n);
  s.nodes.emplace(id, std::move(n));
  return id;
}

Expected<EdgeId> PropertyGraph::add_edge(NodeId from, NodeId to, std::string type,
                                         json::Object properties) {
  Shard& sf = shards_[shard_of(from)];
  Shard& st = shards_[shard_of(to)];
  if (sf.nodes.count(from) == 0) return Error{"unknown source node", std::to_string(from)};
  if (st.nodes.count(to) == 0) return Error{"unknown target node", std::to_string(to)};
  // The edge record, its id sequence, and its type count live in the source
  // node's shard, so shard_of(edge id) routes straight to the record.
  const EdgeId id = make_id(shard_of(from), sf.next_edge++);
  const TypeId tid = intern_type(type);
  if (sf.type_counts.size() <= tid) sf.type_counts.resize(tid + 1, 0);
  ++sf.type_counts[tid];
  sf.edges.emplace(id, Edge{id, from, to, std::move(type), std::move(properties)});
  sf.out[from].push_back({tid, id});
  st.in[to].push_back({tid, id});
  return id;
}

void PropertyGraph::unlink_edge(const Edge& e) {
  Shard& sf = shards_[shard_of(e.from)];
  Shard& st = shards_[shard_of(e.to)];
  const std::optional<TypeId> tid = type_id(e.type);
  if (tid && *tid < sf.type_counts.size() && sf.type_counts[*tid] > 0) --sf.type_counts[*tid];
  auto drop = [&](std::unordered_map<NodeId, Adjacency>& table, NodeId node) {
    const auto it = table.find(node);
    if (it == table.end()) return;
    Adjacency& adj = it->second;
    adj.erase(std::remove_if(adj.begin(), adj.end(),
                             [&](const AdjacentEdge& a) { return a.edge == e.id; }),
              adj.end());
  };
  drop(sf.out, e.from);
  drop(st.in, e.to);
}

Status PropertyGraph::remove_node(NodeId id) {
  Shard& s = shards_[shard_of(id)];
  const auto it = s.nodes.find(id);
  if (it == s.nodes.end()) return Error{"unknown node", std::to_string(id)};
  // Collect incident edges first: erasing mutates the adjacency tables.
  std::vector<EdgeId> incident;
  for (const Direction dir : {Direction::kOut, Direction::kIn}) {
    for (const EdgeId e : edges_of(id, dir)) incident.push_back(e);
  }
  for (const EdgeId eid : incident) {
    Shard& home = shards_[shard_of(eid)];
    const auto eit = home.edges.find(eid);
    if (eit == home.edges.end()) continue;
    unlink_edge(eit->second);
    home.edges.erase(eit);
  }
  unindex_node(s, it->second);
  s.out.erase(id);
  s.in.erase(id);
  s.nodes.erase(it);
  return Status::ok_status();
}

void PropertyGraph::set_property(NodeId id, const std::string& key, json::Value value) {
  Shard& s = shards_[shard_of(id)];
  const auto it = s.nodes.find(id);
  if (it == s.nodes.end()) return;
  unindex_node(s, it->second);
  it->second.properties.set(key, std::move(value));
  index_node(s, it->second);
}

const Node* PropertyGraph::node(NodeId id) const {
  const Shard& s = shards_[shard_of(id)];
  const auto it = s.nodes.find(id);
  return it == s.nodes.end() ? nullptr : &it->second;
}

const Edge* PropertyGraph::edge(EdgeId id) const {
  const Shard& s = shards_[shard_of(id)];
  const auto it = s.edges.find(id);
  return it == s.edges.end() ? nullptr : &it->second;
}

std::size_t PropertyGraph::node_count() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.nodes.size();
  return n;
}

std::size_t PropertyGraph::edge_count() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.edges.size();
  return n;
}

std::size_t PropertyGraph::node_count_in_shard(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard].nodes.size() : 0;
}

std::size_t PropertyGraph::edge_count_in_shard(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard].edges.size() : 0;
}

std::vector<NodeId> PropertyGraph::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(node_count());
  for (const Shard& s : shards_) {
    for (const auto& [id, n] : s.nodes) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> PropertyGraph::nodes_with_label(const std::string& label) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return {};
  std::vector<NodeId> out;
  for (const Shard& s : shards_) {
    if (*lid >= s.label_index.size()) continue;
    const Postings& postings = s.label_index[*lid];
    out.insert(out.end(), postings.begin(), postings.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> PropertyGraph::find(const std::string& label, const std::string& key,
                                        const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return {};
  const PropKey probe{*lid, key, value};
  std::vector<NodeId> out;
  for (const Shard& s : shards_) {
    const auto it = s.prop_index.find(probe);
    if (it == s.prop_index.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> PropertyGraph::find_in_shard(std::size_t shard, const std::string& label,
                                                 const std::string& key,
                                                 const json::Value& value) const {
  if (shard >= shards_.size()) return {};
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return {};
  const auto it = shards_[shard].prop_index.find(PropKey{*lid, key, value});
  if (it == shards_[shard].prop_index.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::optional<NodeId> PropertyGraph::find_one(const std::string& label, const std::string& key,
                                              const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return std::nullopt;
  const PropKey probe{*lid, key, value};
  std::optional<NodeId> best;
  for (const Shard& s : shards_) {
    const auto it = s.prop_index.find(probe);
    if (it == s.prop_index.end() || it->second.empty()) continue;
    const NodeId first = it->second.front();
    if (!best || first < *best) best = first;
  }
  return best;
}

std::size_t PropertyGraph::count_with_label(const std::string& label) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return 0;
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    if (*lid < s.label_index.size()) n += s.label_index[*lid].size();
  }
  return n;
}

std::size_t PropertyGraph::count_with_edge_type(const std::string& type) const {
  const std::optional<TypeId> tid = type_id(type);
  if (!tid) return 0;
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    if (*tid < s.type_counts.size()) n += s.type_counts[*tid];
  }
  return n;
}

std::size_t PropertyGraph::count_with_property(const std::string& label, const std::string& key,
                                               const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return 0;
  const PropKey probe{*lid, key, value};
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const auto it = s.prop_index.find(probe);
    if (it != s.prop_index.end()) n += it->second.size();
  }
  return n;
}

const PropertyGraph::Adjacency* PropertyGraph::adjacency(NodeId id, bool outgoing) const {
  const Shard& s = shards_[shard_of(id)];
  const auto& table = outgoing ? s.out : s.in;
  const auto it = table.find(id);
  return it == table.end() ? nullptr : &it->second;
}

std::size_t PropertyGraph::degree(NodeId id, Direction dir) const {
  std::size_t n = 0;
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    if (const Adjacency* adj = adjacency(id, true)) n += adj->size();
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    if (const Adjacency* adj = adjacency(id, false)) n += adj->size();
  }
  return n;
}

std::vector<EdgeId> PropertyGraph::edges_of(NodeId id, Direction dir) const {
  std::vector<EdgeId> result;
  auto collect = [&](bool outgoing) {
    const Adjacency* adj = adjacency(id, outgoing);
    if (adj == nullptr) return;
    for (const AdjacentEdge& a : *adj) result.push_back(a.edge);
  };
  if (dir == Direction::kOut || dir == Direction::kBoth) collect(true);
  if (dir == Direction::kIn || dir == Direction::kBoth) collect(false);
  return result;
}

std::vector<NodeId> PropertyGraph::neighbors(NodeId id, Direction dir,
                                             const std::string& edge_type) const {
  std::vector<NodeId> result;
  if (edge_type.empty()) {
    for (const EdgeId eid : edges_of(id, dir)) {
      const Edge* e = edge(eid);
      result.push_back(e->from == id ? e->to : e->from);
    }
    return result;
  }
  const std::optional<TypeId> tid = type_id(edge_type);
  if (!tid) return result;
  auto walk = [&](bool outgoing) {
    const Adjacency* adj = adjacency(id, outgoing);
    if (adj == nullptr) return;
    for (const AdjacentEdge& a : *adj) {
      if (a.type != *tid) continue;
      const Edge* e = edge(a.edge);
      result.push_back(outgoing ? e->to : e->from);
    }
  };
  if (dir == Direction::kOut || dir == Direction::kBoth) walk(true);
  if (dir == Direction::kIn || dir == Direction::kBoth) walk(false);
  return result;
}

std::vector<NodeId> PropertyGraph::reachable(NodeId start, Direction dir,
                                             std::size_t max_hops,
                                             const std::string& edge_type) const {
  std::vector<NodeId> result;
  std::set<NodeId> seen{start};
  std::deque<std::pair<NodeId, std::size_t>> frontier{{start, 0}};
  while (!frontier.empty()) {
    const auto [current, depth] = frontier.front();
    frontier.pop_front();
    if (depth == max_hops) continue;
    for (const NodeId next : neighbors(current, dir, edge_type)) {
      if (!seen.insert(next).second) continue;
      result.push_back(next);
      frontier.emplace_back(next, depth + 1);
    }
  }
  return result;
}

std::vector<NodeId> PropertyGraph::shortest_path(NodeId start, NodeId goal,
                                                 Direction dir) const {
  if (node(start) == nullptr || node(goal) == nullptr) return {};
  if (start == goal) return {start};
  std::map<NodeId, NodeId> parent;
  std::deque<NodeId> frontier{start};
  parent[start] = start;
  while (!frontier.empty()) {
    const NodeId current = frontier.front();
    frontier.pop_front();
    for (const NodeId next : neighbors(current, dir)) {
      if (parent.count(next) != 0) continue;
      parent[next] = current;
      if (next == goal) {
        std::vector<NodeId> path{goal};
        for (NodeId at = goal; at != start;) {
          at = parent[at];
          path.push_back(at);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return {};
}

std::string to_dot(const PropertyGraph& graph) {
  std::string out = "digraph provgraph {\n  node [fontname=\"Helvetica\"];\n";
  for (const NodeId id : graph.node_ids()) {
    const Node* n = graph.node(id);
    const json::Value* prov_id = n->properties.find("prov_id");
    std::string label;
    if (prov_id != nullptr && prov_id->is_string()) {
      label = prov_id->as_string();
    } else {
      label = "#";
      label += std::to_string(id);
    }
    std::string escaped;
    for (const char c : label) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += "  n" + std::to_string(id) + " [label=\"" + escaped + "\"";
    if (n->labels.count("Entity") != 0) {
      out += ", shape=ellipse, style=filled, fillcolor=\"#FFFC87\"";
    } else if (n->labels.count("Activity") != 0) {
      out += ", shape=box, style=filled, fillcolor=\"#9FB1FC\"";
    } else if (n->labels.count("Agent") != 0) {
      out += ", shape=house, style=filled, fillcolor=\"#FED37F\"";
    }
    out += "];\n";
  }
  for (const NodeId id : graph.node_ids()) {
    for (const EdgeId eid : graph.edges_of(id, Direction::kOut)) {
      const Edge* e = graph.edge(eid);
      out += "  n" + std::to_string(e->from) + " -> n" + std::to_string(e->to) +
             " [label=\"" + e->type + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace provml::graphstore
