#include "provml/graphstore/graph.hpp"

#include <algorithm>
#include <deque>
#include <functional>

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

/// Adds `id` to ascending postings. Ids are allocated in ascending order,
/// so this is an append except when set_property re-indexes an older node.
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

}  // namespace

std::size_t PropertyGraph::PropKeyHash::operator()(const PropKey& k) const {
  std::size_t seed = std::hash<LabelId>{}(k.label);
  seed = hash_mix(seed, std::hash<std::string>{}(k.key));
  return hash_mix(seed, hash_value(k.value));
}

std::optional<PropertyGraph::LabelId> PropertyGraph::label_id(const std::string& label) const {
  const auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return std::nullopt;
  return it->second;
}

PropertyGraph::LabelId PropertyGraph::intern_label(const std::string& label) {
  return label_ids_.try_emplace(label, static_cast<LabelId>(label_ids_.size())).first->second;
}

std::optional<PropertyGraph::TypeId> PropertyGraph::type_id(const std::string& type) const {
  const auto it = type_ids_.find(type);
  if (it == type_ids_.end()) return std::nullopt;
  return it->second;
}

PropertyGraph::TypeId PropertyGraph::intern_type(const std::string& type) {
  return type_ids_.try_emplace(type, static_cast<TypeId>(type_ids_.size())).first->second;
}

void PropertyGraph::index_node(const Node& n) {
  for (const std::string& label : n.labels) {
    const LabelId lid = intern_label(label);
    if (label_index_.size() <= lid) label_index_.resize(lid + 1);
    insert_posting(label_index_[lid], n.id);
    for (const auto& [key, value] : n.properties) {
      insert_posting(prop_index_[PropKey{lid, key, value}], n.id);
    }
  }
}

void PropertyGraph::unindex_node(const Node& n) {
  for (const std::string& label : n.labels) {
    const std::optional<LabelId> lid = label_id(label);
    if (!lid) continue;
    if (*lid < label_index_.size()) erase_posting(label_index_[*lid], n.id);
    for (const auto& [key, value] : n.properties) {
      const auto it = prop_index_.find(PropKey{*lid, key, value});
      if (it != prop_index_.end()) {
        erase_posting(it->second, n.id);
        if (it->second.empty()) prop_index_.erase(it);
      }
    }
  }
}

NodeId PropertyGraph::add_node(std::set<std::string> labels, json::Object properties) {
  const NodeId id = next_node_++;
  Node n{id, std::move(labels), std::move(properties)};
  index_node(n);
  nodes_.emplace(id, std::move(n));
  return id;
}

Expected<EdgeId> PropertyGraph::add_edge(NodeId from, NodeId to, std::string type,
                                         json::Object properties) {
  if (nodes_.count(from) == 0) return Error{"unknown source node", std::to_string(from)};
  if (nodes_.count(to) == 0) return Error{"unknown target node", std::to_string(to)};
  const EdgeId id = next_edge_++;
  const TypeId tid = intern_type(type);
  if (type_counts_.size() <= tid) type_counts_.resize(tid + 1, 0);
  ++type_counts_[tid];
  edges_.emplace(id, Edge{id, from, to, std::move(type), std::move(properties)});
  out_[from].push_back({tid, id});
  in_[to].push_back({tid, id});
  return id;
}

void PropertyGraph::unlink_edge(const Edge& e) {
  const std::optional<TypeId> tid = type_id(e.type);
  if (tid && *tid < type_counts_.size() && type_counts_[*tid] > 0) --type_counts_[*tid];
  auto drop = [&](std::unordered_map<NodeId, Adjacency>& table, NodeId node) {
    const auto it = table.find(node);
    if (it == table.end()) return;
    Adjacency& adj = it->second;
    adj.erase(std::remove_if(adj.begin(), adj.end(),
                             [&](const AdjacentEdge& a) { return a.edge == e.id; }),
              adj.end());
  };
  drop(out_, e.from);
  drop(in_, e.to);
}

Status PropertyGraph::remove_node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return Error{"unknown node", std::to_string(id)};
  // Collect incident edges first: erasing mutates the adjacency tables.
  std::vector<EdgeId> incident;
  for (const Direction dir : {Direction::kOut, Direction::kIn}) {
    for (const EdgeId e : edges_of(id, dir)) incident.push_back(e);
  }
  for (const EdgeId eid : incident) {
    const auto eit = edges_.find(eid);
    if (eit == edges_.end()) continue;
    unlink_edge(eit->second);
    edges_.erase(eit);
  }
  unindex_node(it->second);
  out_.erase(id);
  in_.erase(id);
  nodes_.erase(it);
  return Status::ok_status();
}

void PropertyGraph::set_property(NodeId id, const std::string& key, json::Value value) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  unindex_node(it->second);
  it->second.properties.set(key, std::move(value));
  index_node(it->second);
}

const Node* PropertyGraph::node(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const Edge* PropertyGraph::edge(EdgeId id) const {
  const auto it = edges_.find(id);
  return it == edges_.end() ? nullptr : &it->second;
}

std::size_t PropertyGraph::node_count() const { return nodes_.size(); }

std::size_t PropertyGraph::edge_count() const { return edges_.size(); }

std::vector<NodeId> PropertyGraph::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> PropertyGraph::nodes_with_label(const std::string& label) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid || *lid >= label_index_.size()) return {};
  return label_index_[*lid];
}

std::vector<NodeId> PropertyGraph::find(const std::string& label, const std::string& key,
                                        const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return {};
  const auto it = prop_index_.find(PropKey{*lid, key, value});
  if (it == prop_index_.end()) return {};
  return it->second;
}

std::optional<NodeId> PropertyGraph::find_one(const std::string& label, const std::string& key,
                                              const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return std::nullopt;
  const auto it = prop_index_.find(PropKey{*lid, key, value});
  if (it == prop_index_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

std::size_t PropertyGraph::count_with_label(const std::string& label) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid || *lid >= label_index_.size()) return 0;
  return label_index_[*lid].size();
}

std::size_t PropertyGraph::count_with_edge_type(const std::string& type) const {
  const std::optional<TypeId> tid = type_id(type);
  if (!tid || *tid >= type_counts_.size()) return 0;
  return type_counts_[*tid];
}

std::size_t PropertyGraph::count_with_property(const std::string& label, const std::string& key,
                                               const json::Value& value) const {
  const std::optional<LabelId> lid = label_id(label);
  if (!lid) return 0;
  const auto it = prop_index_.find(PropKey{*lid, key, value});
  return it == prop_index_.end() ? 0 : it->second.size();
}

const PropertyGraph::Adjacency* PropertyGraph::adjacency(NodeId id, bool outgoing) const {
  const auto& table = outgoing ? out_ : in_;
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
