// Experiment X6: tree depth. Every complexity bound in Table 1 carries
// the maximum depth d as a factor (Dewey comparisons cost O(d)), and the
// Section 5 ancestor-checking pass does ~d checkLCA calls per SLCA. This
// bench runs identical frequency shapes over XMark-style corpora whose
// description recursion depth grows, holding everything else fixed.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "gen/xmark_generator.h"

namespace xksearch {
namespace bench {
namespace {

DiskSearcher& DepthCorpus(uint32_t description_depth) {
  // One lazily built engine per depth (a handful of depths only).
  static std::vector<std::pair<uint32_t, DiskSearcher*>>* cache =
      new std::vector<std::pair<uint32_t, DiskSearcher*>>();
  for (auto& [depth, disk] : *cache) {
    if (depth == description_depth) return *disk;
  }
  XmarkOptions options;
  options.items = 20000;
  options.people = 2000;
  options.description_depth = description_depth;
  options.plants = {{"rare", 10}, {"mid", 2000}, {"big", 20000}};
  Result<Document> doc = GenerateXmark(options);
  CheckOk(doc.status(), "GenerateXmark");
  std::fprintf(stderr, "[bench] xmark depth=%u: %zu nodes, max depth %u\n",
               description_depth, doc->node_count(), doc->max_depth());
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc));
  CheckOk(system.status(), "BuildFromDocument");
  DiskIndexOptions disk;
  disk.in_memory = true;
  Result<std::unique_ptr<DiskSearcher>> searcher =
      DiskSearcher::Build(**system, "", disk);
  CheckOk(searcher.status(), "DiskSearcher::Build");
  cache->emplace_back(description_depth, searcher->release());
  return *cache->back().second;
}

void RunDepth(benchmark::State& state, Semantics semantics) {
  DiskSearcher& disk = DepthCorpus(static_cast<uint32_t>(state.range(0)));
  const std::vector<std::vector<std::string>> queries = {
      {"rare", "big"}, {"rare", "mid"}, {"mid", "big"}};

  SearchOptions options;
  options.algorithm = AlgorithmChoice::kIndexedLookupEager;
  options.semantics = semantics;
  WarmUp(disk);

  BatchResult batch;
  for (auto _ : state) {
    batch = RunBatch(disk, queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["dewey_cmp_per_query"] =
      static_cast<double>(batch.stats.dewey_comparisons) /
      static_cast<double>(queries.size());
  state.counters["match_ops_per_query"] =
      static_cast<double>(batch.stats.match_ops) /
      static_cast<double>(queries.size());
}

BENCHMARK_CAPTURE(RunDepth, Slca, Semantics::kSlca)
    ->Arg(0)
    ->Arg(2)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);
BENCHMARK_CAPTURE(RunDepth, AllLca, Semantics::kAllLca)
    ->Arg(0)
    ->Arg(2)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
