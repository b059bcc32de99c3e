#include "provml/graphstore/ingest.hpp"

namespace provml::graphstore {
namespace {

const char* kind_label(prov::ElementKind kind) {
  switch (kind) {
    case prov::ElementKind::kEntity: return "Entity";
    case prov::ElementKind::kActivity: return "Activity";
    case prov::ElementKind::kAgent: return "Agent";
  }
  return "?";
}

json::Object element_properties(const prov::Element& e, const std::string& document_name,
                                const std::string& bundle) {
  json::Object props;
  props.set("prov_id", e.id);
  props.set("document", document_name);
  if (!bundle.empty()) props.set("bundle", bundle);
  if (!e.start_time.empty()) props.set("prov:startTime", e.start_time);
  if (!e.end_time.empty()) props.set("prov:endTime", e.end_time);
  for (const auto& [key, value] : e.attributes) {
    if (!props.contains(key)) props.set(key, value.value);
  }
  return props;
}

Status ingest_scope(PropertyGraph& graph, const prov::Document& doc,
                    const std::string& document_name, const std::string& bundle,
                    IngestStats& stats) {
  for (const prov::Element& e : doc.elements()) {
    const std::string scoped_id = bundle.empty() ? e.id : bundle + "#" + e.id;
    if (find_prov_node(graph, document_name, scoped_id).has_value()) {
      ++stats.elements_merged;
      continue;
    }
    json::Object props = element_properties(e, document_name, bundle);
    props.set("prov_id", scoped_id);  // bundle-qualified identity
    props.set("local_id", e.id);
    graph.add_node({kind_label(e.kind), "Prov"}, std::move(props));
    ++stats.nodes_added;
  }
  for (const prov::Relation& r : doc.relations()) {
    const std::string subject = bundle.empty() ? r.subject : bundle + "#" + r.subject;
    const std::string object = bundle.empty() ? r.object : bundle + "#" + r.object;
    const auto from = find_prov_node(graph, document_name, subject);
    const auto to = find_prov_node(graph, document_name, object);
    if (!from || !to) {
      return Error{"relation endpoint missing from graph: " +
                       (from ? r.object : r.subject),
                   document_name};
    }
    json::Object props;
    props.set("relation_id", r.id);
    if (!r.time.empty()) props.set("prov:time", r.time);
    for (const auto& [key, value] : r.attributes) props.set(key, value.value);
    Expected<EdgeId> edge = graph.add_edge(
        *from, *to, prov::relation_spec(r.kind).json_key, std::move(props));
    if (!edge.ok()) return edge.error();
    ++stats.edges_added;
  }
  for (const auto& [bundle_id, sub] : doc.bundles()) {
    Status s = ingest_scope(graph, sub, document_name, bundle_id, stats);
    if (!s.ok()) return s;
  }
  return Status::ok_status();
}

}  // namespace

Expected<IngestStats> ingest_document(PropertyGraph& graph, const prov::Document& doc,
                                      const std::string& document_name) {
  IngestStats stats;
  Status s = ingest_scope(graph, doc, document_name, "", stats);
  if (!s.ok()) return s.error();
  return stats;
}

std::size_t remove_document(PropertyGraph& graph, const std::string& document_name) {
  // Every element node carries document=<name> under the Prov label, so the
  // equality index enumerates the whole subgraph directly; removing the
  // nodes removes their edges transitively.
  const std::vector<NodeId> nodes =
      graph.find("Prov", "document", json::Value(document_name));
  for (const NodeId id : nodes) {
    (void)graph.remove_node(id);
  }
  return nodes.size();
}

std::optional<NodeId> find_prov_node(const PropertyGraph& graph,
                                     const std::string& document_name,
                                     const std::string& prov_id) {
  for (const NodeId id : graph.find("Prov", "prov_id", json::Value(prov_id))) {
    const json::Value* doc = graph.node(id)->properties.find("document");
    if (doc != nullptr && doc->is_string() && doc->as_string() == document_name) {
      return id;
    }
  }
  return std::nullopt;
}

}  // namespace provml::graphstore
