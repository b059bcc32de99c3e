// PROV → property graph mapping: elements become nodes labeled Entity /
// Activity / Agent (plus the document name), relations become typed edges.
// Bundles are flattened with a "bundle" property on their nodes.
#pragma once

#include "provml/graphstore/graph.hpp"
#include "provml/prov/model.hpp"

namespace provml::graphstore {

struct IngestStats {
  std::size_t nodes_added = 0;
  std::size_t edges_added = 0;
  std::size_t elements_merged = 0;  ///< ids that already existed in the doc scope
};

/// Ingests `doc` into `graph` under a document scope name. Elements are
/// deduplicated per (document, prov id); re-ingesting the same document
/// merges rather than duplicates.
[[nodiscard]] Expected<IngestStats> ingest_document(PropertyGraph& graph,
                                                    const prov::Document& doc,
                                                    const std::string& document_name);

/// Removes every node (and, transitively, edge) a prior ingest of
/// `document_name` created. Returns the number of nodes removed (0 when
/// the document was never ingested).
std::size_t remove_document(PropertyGraph& graph, const std::string& document_name);

/// Finds the node for a prov id within a document scope.
[[nodiscard]] std::optional<NodeId> find_prov_node(const PropertyGraph& graph,
                                                   const std::string& document_name,
                                                   const std::string& prov_id);

}  // namespace provml::graphstore
