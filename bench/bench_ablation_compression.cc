// Ablation X2: the Dewey compression machinery of Section 4 — the
// level-table bit packing of Indexed Lookup keys and the prefix-delta
// coding of scan blocks. Compares index size (pages) and query cost
// between compressed and uncompressed builds of the same corpus.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "gen/dblp_generator.h"

namespace xksearch {
namespace bench {
namespace {

// A self-contained mid-size corpus (independent of the shared one, so
// both variants can be built without doubling peak memory).
std::unique_ptr<XKSearch> BuildVariant(bool compressed) {
  DblpOptions gen;
  gen.papers = 30000;
  gen.seed = 7;
  gen.plants = {{"rare", 10}, {"mid", 1000}, {"big", 30000}};
  Result<Document> doc = GenerateDblp(gen);
  CheckOk(doc.status(), "GenerateDblp");

  XKSearch::BuildOptions build;
  build.build_disk_index = true;
  build.disk.in_memory = true;
  build.disk.compress_dewey = compressed;
  build.disk.delta_compress = compressed;
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc), build);
  CheckOk(system.status(), "BuildFromDocument");
  return std::move(*system);
}

XKSearch& Variant(bool compressed) {
  static XKSearch* on = BuildVariant(true).release();
  static XKSearch* off = BuildVariant(false).release();
  return compressed ? *on : *off;
}

void RunCompression(benchmark::State& state) {
  const bool compressed = state.range(0) != 0;
  XKSearch& system = Variant(compressed);
  const std::vector<std::vector<std::string>> queries = {
      {"rare", "big"}, {"mid", "big"}, {"rare", "mid", "big"}};

  SearchOptions options;
  options.use_disk_index = true;

  BatchResult batch;
  for (auto _ : state) {
    batch = RunBatchCold(system, queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["scan_pages"] =
      static_cast<double>(system.disk_index()->scan_page_count());
  state.counters["page_reads_per_query"] =
      static_cast<double>(batch.stats.page_reads) /
      static_cast<double>(queries.size());
}

BENCHMARK(RunCompression)
    ->Arg(1)  // compressed (paper Section 4)
    ->Arg(0)  // fixed-width keys, no delta coding
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
