// Ablation: graph-store scalability. The paper flags scalability as the
// first gap in existing trackers ("existing tracking systems may struggle
// to handle the increased volume"); this bench measures PROV-document
// ingest and lineage traversal latency as document size grows.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <unistd.h>

#include <filesystem>

#include "provml/core/run.hpp"
#include "provml/explorer/lineage.hpp"
#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/prov/model.hpp"
#include "provml/prov/prov_json.hpp"

namespace {

using namespace provml;

/// A training-shaped document with `epochs` epoch activities, each using
/// the dataset and generating a checkpoint — linear growth in both elements
/// and relations.
prov::Document synthetic_run(int epochs) {
  prov::Document doc;
  doc.declare_namespace("ex", "urn:bench/");
  doc.add_agent("ex:user");
  doc.add_activity("ex:run");
  doc.add_entity("ex:dataset");
  doc.was_associated_with("ex:run", "ex:user");
  doc.used("ex:run", "ex:dataset");
  std::string previous_ckpt = "ex:dataset";
  for (int e = 0; e < epochs; ++e) {
    const std::string epoch_id = "ex:epoch_" + std::to_string(e);
    const std::string ckpt_id = "ex:ckpt_" + std::to_string(e);
    doc.add_activity(epoch_id);
    doc.add_entity(ckpt_id);
    doc.was_informed_by(epoch_id, "ex:run");
    doc.used(epoch_id, previous_ckpt);
    doc.was_generated_by(ckpt_id, epoch_id);
    previous_ckpt = ckpt_id;
  }
  return doc;
}

void BM_Ingest(benchmark::State& state) {
  const prov::Document doc = synthetic_run(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    graphstore::PropertyGraph graph;
    auto stats = graphstore::ingest_document(graph, doc, "bench");
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Ingest)->Arg(10)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_LineageFullChain(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const prov::Document doc = synthetic_run(epochs);
  const std::string last = "ex:ckpt_" + std::to_string(epochs - 1);
  for (auto _ : state) {
    const auto hops = explorer::upstream(doc, last);
    benchmark::DoNotOptimize(hops.size());
  }
  state.SetItemsProcessed(state.iterations() * epochs);
}
BENCHMARK(BM_LineageFullChain)->Arg(10)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_IndexedFind(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const auto nodes = state.range(0);
  for (std::int64_t i = 0; i < nodes; ++i) {
    graph.add_node({"Run"}, json::make_object({{"run_id", i}}));
  }
  std::int64_t probe = 0;
  for (auto _ : state) {
    const auto hit = graph.find_one("Run", "run_id", json::Value(probe++ % nodes));
    benchmark::DoNotOptimize(hit.has_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedFind)->Arg(100)->Arg(10000);

/// The ablation partner of BM_IndexedFind: the same probe answered by a
/// full node-table scan, the way a store without a property index would —
/// quantifies what the composite (label, key, value) index buys.
void BM_ScanFind(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const auto nodes = state.range(0);
  for (std::int64_t i = 0; i < nodes; ++i) {
    graph.add_node({"Run"}, json::make_object({{"run_id", i}}));
  }
  std::int64_t probe = 0;
  for (auto _ : state) {
    const json::Value want(probe++ % nodes);
    std::optional<graphstore::NodeId> hit;
    for (const graphstore::NodeId id : graph.node_ids()) {
      const graphstore::Node* n = graph.node(id);
      if (n->labels.count("Run") == 0) continue;
      const json::Value* v = n->properties.find("run_id");
      if (v != nullptr && *v == want) {
        hit = id;
        break;
      }
    }
    benchmark::DoNotOptimize(hit.has_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScanFind)->Arg(100)->Arg(10000);

void BM_ShortestPath(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const auto n = state.range(0);
  std::vector<graphstore::NodeId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) ids.push_back(graph.add_node({"N"}));
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    (void)graph.add_edge(ids[static_cast<std::size_t>(i)],
                         ids[static_cast<std::size_t>(i + 1)], "r");
  }
  for (auto _ : state) {
    const auto path = graph.shortest_path(ids.front(), ids.back());
    benchmark::DoNotOptimize(path.size());
  }
}
BENCHMARK(BM_ShortestPath)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);


void BM_PatternQuery(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const prov::Document doc = synthetic_run(static_cast<int>(state.range(0)));
  (void)graphstore::ingest_document(graph, doc, "bench");
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity)-[:wasGeneratedBy]->(e:Activity)-[:used]->(p:Entity) "
      "RETURN c, p").take();
  for (auto _ : state) {
    auto rows = graphstore::run_query(graph, query);
    benchmark::DoNotOptimize(rows.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternQuery)->Arg(10)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

/// The same pattern run through the reference matcher (full scan, no
/// anchor selection, no reversal, no condition pushdown): the planner's
/// ablation baseline. run_query == run_query_brute_force row-for-row;
/// only the work to get there differs.
void BM_PatternQueryBruteForce(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const prov::Document doc = synthetic_run(static_cast<int>(state.range(0)));
  (void)graphstore::ingest_document(graph, doc, "bench");
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity)-[:wasGeneratedBy]->(e:Activity)-[:used]->(p:Entity) "
      "RETURN c, p").take();
  for (auto _ : state) {
    auto rows = graphstore::run_query_brute_force(graph, query);
    benchmark::DoNotOptimize(rows.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternQueryBruteForce)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

/// A selective anchored query: one epoch activity pinned by property, one
/// hop out. The planner anchors on the (label, prov_id, value) posting
/// list (size 1); brute force scans every node. This is the paper's
/// "query one run out of thousands" shape.
void BM_SelectiveQuery(benchmark::State& state) {
  graphstore::PropertyGraph graph;
  const int epochs = static_cast<int>(state.range(0));
  const prov::Document doc = synthetic_run(epochs);
  (void)graphstore::ingest_document(graph, doc, "bench");
  const std::string text =
      "MATCH (e:Activity {prov_id: \"ex:epoch_" + std::to_string(epochs / 2) +
      "\"})-[:used]->(p:Entity) RETURN p";
  const auto query = graphstore::parse_query(text).take();
  const bool brute = state.range(1) != 0;
  for (auto _ : state) {
    auto rows = brute ? graphstore::run_query_brute_force(graph, query)
                      : graphstore::run_query(graph, query);
    benchmark::DoNotOptimize(rows.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectiveQuery)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      R"(MATCH (a:Activity {prov_id: "ex:run"})<-[:wasGeneratedBy]-(e:Entity) RETURN e)";
  for (auto _ : state) {
    auto q = graphstore::parse_query(text);
    benchmark::DoNotOptimize(q.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryParse);

/// Heap bytes in use, mmapped blocks included (glibc sums every arena).
double heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// `runs` training-run documents shaped like a hyperparameter sweep's:
/// 40 input parameters, three epochs of step-level loss and learning rate
/// plus a validation loss, a checkpoint artifact and the final loss.
std::vector<prov::Document> sweep_documents(std::size_t runs) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("provml_footprint_" + std::to_string(::getpid()));
  std::vector<prov::Document> docs;
  docs.reserve(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    core::Experiment experiment("sweep_" + std::to_string(r % 16));
    core::RunOptions options;
    options.provenance_dir = (dir / std::to_string(r)).string();
    options.metric_store = "json";
    options.pretty_json = false;
    core::Run& run = experiment.start_run(options, "run_" + std::to_string(r));
    run.log_param("devices", static_cast<std::int64_t>(8 << (r % 5)));
    run.log_param("parameters", static_cast<std::int64_t>(100'000'000 * (1 + r % 4)));
    for (int p = 0; p < 38; ++p) {
      run.log_param("hp_" + std::to_string(p), 1e-4 * static_cast<double>((r * 31 + p) % 997));
    }
    for (int epoch = 0; epoch < 3; ++epoch) {
      run.begin_epoch(core::contexts::kTraining, epoch);
      for (int step = 0; step < 40; ++step) {
        const std::int64_t at = epoch * 40 + step;
        run.log_metric("loss", 2.0 / (1.0 + static_cast<double>(at)), at,
                       core::contexts::kTraining);
        run.log_metric("learning_rate", 1e-4, at, core::contexts::kTraining);
      }
      run.log_metric("val_loss", 1.0 / (1.0 + epoch), epoch, core::contexts::kValidation);
      run.end_epoch(core::contexts::kTraining, epoch);
    }
    run.log_artifact("ckpt_" + std::to_string(r), "ckpt/" + std::to_string(r) + ".pt",
                     core::IoRole::kOutput, core::contexts::kTraining);
    run.log_param("final_loss", 0.05, core::IoRole::kOutput);
    if (run.finish().ok()) docs.push_back(run.document());
  }
  std::filesystem::remove_all(dir);
  return docs;
}

/// Heap cost of one stored document: the mallinfo2 delta of putting
/// `range(0)` sweep documents into a fresh service (its graph and its
/// stored copy), divided by the count. graph_bytes_per_doc is the same
/// delta for the documents' subgraphs alone; doc_bytes_per_doc is the mean
/// size of their compact PROV-JSON.
void BM_DocumentFootprint(benchmark::State& state) {
  const std::vector<prov::Document> docs =
      sweep_documents(static_cast<std::size_t>(state.range(0)));
  double doc_bytes = 0;
  for (const prov::Document& doc : docs) {
    doc_bytes += static_cast<double>(prov::to_prov_json_string(doc, false).size());
  }
  double service_bytes = 0;
  double graph_bytes = 0;
  for (auto _ : state) {
    {
      const double before = heap_in_use();
      graphstore::YProvService service;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        if (!service.put_document("run_" + std::to_string(i), docs[i]).ok()) {
          state.SkipWithError("put_document failed");
          return;
        }
      }
      service_bytes = heap_in_use() - before;
      benchmark::DoNotOptimize(service.document_count());
    }
    {
      const double before = heap_in_use();
      graphstore::PropertyGraph graph;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        (void)graphstore::ingest_document(graph, docs[i], "run_" + std::to_string(i));
      }
      graph_bytes = heap_in_use() - before;
      benchmark::DoNotOptimize(graph.node_count());
    }
  }
  const double n = static_cast<double>(docs.size());
  state.counters["heap_bytes_per_doc"] = service_bytes / n;
  state.counters["graph_bytes_per_doc"] = graph_bytes / n;
  state.counters["doc_bytes_per_doc"] = doc_bytes / n;
}
BENCHMARK(BM_DocumentFootprint)->Arg(1000)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
