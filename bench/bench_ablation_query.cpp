// Ablation: query-engine depth. Quantifies what each layer of the
// cost-based executor buys over the brute-force reference evaluator the
// differential suites compare it against (`ctest -L query`): indexed
// anchoring + BFS for variable-length paths vs DFS path enumeration over
// a full scan, incremental aggregation vs full materialization, and a
// bounded heap for ORDER BY/LIMIT vs sorting every row. The two
// sides return identical tables by construction, so every pair below is
// a pure cost comparison.
#include <benchmark/benchmark.h>

#include <string>

#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/prov/model.hpp"

namespace {

using namespace provml;

/// A training-shaped document with `epochs` epoch activities, each using
/// the previous checkpoint and generating the next — a deep dependency
/// chain plus a shared dataset, mirroring the lineage workloads the
/// explorer serves.
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

graphstore::PropertyGraph ingested(int epochs) {
  graphstore::PropertyGraph graph;
  (void)graphstore::ingest_document(graph, synthetic_run(epochs), "bench");
  return graph;
}

/// Variable-length lineage from the newest checkpoint: the planner
/// anchors on the (label, prov_id) posting list and walks a BFS frontier
/// with a node-simple visited set, while the reference evaluator
/// enumerates simple paths by DFS from every node in the table.
void BM_VarLengthPlanned(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const graphstore::PropertyGraph graph = ingested(epochs);
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity {prov_id: \"ex:ckpt_" + std::to_string(epochs - 1) +
      "\"})-[*1..]->(x) RETURN x").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * epochs);
}
BENCHMARK(BM_VarLengthPlanned)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_VarLengthBrute(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const graphstore::PropertyGraph graph = ingested(epochs);
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity {prov_id: \"ex:ckpt_" + std::to_string(epochs - 1) +
      "\"})-[*1..]->(x) RETURN x").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query_brute_force(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * epochs);
}
BENCHMARK(BM_VarLengthBrute)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

/// The raw reachability primitive both the planner and the explorer's
/// lineage command sit on — the floor for the two benches above.
void BM_VarLengthReachPrimitive(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const graphstore::PropertyGraph graph = ingested(epochs);
  const auto start = graph.find_one("Entity", "prov_id",
                                    json::Value("ex:ckpt_" +
                                                std::to_string(epochs - 1)));
  for (auto _ : state) {
    const auto hops = graphstore::var_length_reach(
        graph, *start, graphstore::Direction::kOut, /*type=*/"",
        graphstore::kUnboundedHops);
    benchmark::DoNotOptimize(hops.size());
  }
  state.SetItemsProcessed(state.iterations() * epochs);
}
BENCHMARK(BM_VarLengthReachPrimitive)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

/// Grouped count over every (activity, entity) `used` pair: the executor
/// folds each deduplicated binding row into per-group accumulators as it
/// goes; the reference evaluator materializes every group's row vector
/// before folding.
void BM_GroupedAggregatePlanned(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query = graphstore::parse_query(
      "MATCH (a:Activity)-[:used]->(e:Entity) RETURN e, count(a)").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedAggregatePlanned)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_GroupedAggregateBrute(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query = graphstore::parse_query(
      "MATCH (a:Activity)-[:used]->(e:Entity) RETURN e, count(a)").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query_brute_force(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupedAggregateBrute)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

/// ORDER BY prov_id LIMIT 5 over every entity: with a LIMIT the executor
/// keeps the top k rows in a bounded heap as the walk finds them; the
/// reference evaluator fully sorts before paging. Same comparator, same
/// rows — latency is the only difference.
void BM_TopKOrderByPlanned(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity) RETURN c ORDER BY c.prov_id DESC LIMIT 5").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopKOrderByPlanned)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_TopKOrderByBrute(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity) RETURN c ORDER BY c.prov_id DESC LIMIT 5").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query_brute_force(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopKOrderByBrute)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// A plan that reverses: the written start (every Entity) is the large
/// end, so the planner anchors on the one epoch activity pinned by
/// prov_id, walks the edge backwards, and flips and sorts the found paths
/// into the canonical order. The reference evaluator scans forward from
/// every node. No other row here plans a reversed walk, so each side
/// checks the plan before timing.
graphstore::Query reversing_query(const graphstore::PropertyGraph& graph, int epochs,
                                  benchmark::State& state) {
  auto query = graphstore::parse_query(
      "MATCH (c:Entity)-[:wasGeneratedBy]->(a:Activity {prov_id: \"ex:epoch_" +
      std::to_string(epochs / 2) + "\"}) RETURN c").take();
  if (!graphstore::explain_query(graph, query).reversed) {
    state.SkipWithError("the plan does not reverse");
  }
  return query;
}

void BM_ReversedPlanned(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const graphstore::PropertyGraph graph = ingested(epochs);
  const auto query = reversing_query(graph, epochs, state);
  for (auto _ : state) {
    auto table = graphstore::execute_query(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReversedPlanned)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_ReversedBrute(benchmark::State& state) {
  const int epochs = static_cast<int>(state.range(0));
  const graphstore::PropertyGraph graph = ingested(epochs);
  const auto query = reversing_query(graph, epochs, state);
  for (auto _ : state) {
    auto table = graphstore::execute_query_brute_force(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReversedBrute)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

/// First-page latency: what the streaming cursor buys an interactive
/// client that only wants the top of the result. The cursor walks the
/// DFS just far enough to fill one page (O(page)); the reference
/// evaluator materializes every binding row before applying LIMIT
/// (O(result)). Identical rows either way — the gap is pure wasted work.
void BM_FirstPageCursor(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query =
      graphstore::parse_query("MATCH (e:Entity) RETURN e LIMIT 50").take();
  for (auto _ : state) {
    auto cursor = graphstore::QueryCursor::open(graph, query);
    auto page = cursor.value().next(50);
    benchmark::DoNotOptimize(page.size());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_FirstPageCursor)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_FirstPageMaterialized(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query =
      graphstore::parse_query("MATCH (e:Entity) RETURN e LIMIT 50").take();
  for (auto _ : state) {
    auto table = graphstore::execute_query_brute_force(graph, query);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_FirstPageMaterialized)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

/// Full drain, 50 rows at a time: one cursor resumed page after page
/// (each row's walk work is paid once — O(n) total) vs the LIMIT/SKIP
/// re-execution idiom cursors replace, which restarts the walk and
/// re-skips the prefix for every page — O(n · pages) total.
void BM_DrainCursorPages(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  const auto query = graphstore::parse_query("MATCH (e:Entity) RETURN e").take();
  std::size_t rows = 0;
  for (auto _ : state) {
    auto cursor = graphstore::QueryCursor::open(graph, query);
    rows = 0;
    while (!cursor.value().done()) rows += cursor.value().next(50).size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DrainCursorPages)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_DrainSkipLimitReexec(benchmark::State& state) {
  const graphstore::PropertyGraph graph =
      ingested(static_cast<int>(state.range(0)));
  std::size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (std::size_t page = 0;; ++page) {
      const auto query = graphstore::parse_query(
          "MATCH (e:Entity) RETURN e SKIP " + std::to_string(page * 50) +
          " LIMIT 50").take();
      const auto table = graphstore::execute_query(graph, query);
      rows += table.value().rows.size();
      if (table.value().rows.size() < 50) break;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DrainSkipLimitReexec)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// Cost of planning itself: explain_query walks the pattern twice (both
/// orientations) over posting-list and edge-type statistics without
/// touching the graph — it has to stay negligible next to execution.
void BM_ExplainOnly(benchmark::State& state) {
  const graphstore::PropertyGraph graph = ingested(1000);
  const auto query = graphstore::parse_query(
      "MATCH (c:Entity)-[:wasGeneratedBy]->(a:Activity)-[:used*1..4]->(p:Entity) "
      "RETURN p, count(c)").take();
  for (auto _ : state) {
    const auto plan = graphstore::explain_query(graph, query);
    benchmark::DoNotOptimize(plan.estimated_cost);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExplainOnly);

}  // namespace

BENCHMARK_MAIN();
