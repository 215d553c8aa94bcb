// Figure 11: two keywords, cold cache — the buffer pool is dropped
// before every query, so each query pays its full complement of disk
// accesses. The reported time includes those faults; the counter
// page_reads_per_query is the paper's "number of disk accesses".
//
// Expected shape: Indexed Lookup Eager needs O(k|S1| log) leaf fetches
// regardless of the large list's length, while Scan Eager and Stack
// fault in the entire large list block by block.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig11(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t small = static_cast<uint64_t>(state.range(0));
  const uint64_t large = static_cast<uint64_t>(state.range(1));
  Corpus& corpus = Corpus::Get();
  const auto queries = corpus.Queries({small, large}, kQueriesPerPoint);

  SearchOptions options;
  options.algorithm = algorithm;

  BatchResult batch;
  for (auto _ : state) {
    batch = RunBatchCold(corpus.disk(), queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["page_reads_per_query"] =
      static_cast<double>(batch.stats.page_reads) /
      static_cast<double>(queries.size());
  state.counters["results_per_query"] =
      static_cast<double>(batch.total_results) /
      static_cast<double>(queries.size());
}

void Fig11Args(benchmark::internal::Benchmark* b) {
  for (int64_t small : {10, 100, 1000}) {
    for (int64_t large : {10, 100, 1000, 10000, 100000}) {
      if (large >= small) b->Args({small, large});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig11, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig11Args);
BENCHMARK_CAPTURE(RunFig11, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig11Args);
BENCHMARK_CAPTURE(RunFig11, Stack, AlgorithmChoice::kStack)->Apply(Fig11Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
