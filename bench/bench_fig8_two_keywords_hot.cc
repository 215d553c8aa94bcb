// Figure 8: two keywords, hot cache. The small list's frequency is held
// at 10 / 100 / 1000 while the large list's frequency sweeps up to
// 100,000. Each iteration runs the paper's batch of 40 random queries.
//
// Expected shape: Indexed Lookup Eager stays nearly flat as the large
// list grows (its cost depends on |S1| times a log of |S2|); Scan Eager
// and Stack grow linearly with the large list, losing by orders of
// magnitude at high skew.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig8(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t small = static_cast<uint64_t>(state.range(0));
  const uint64_t large = static_cast<uint64_t>(state.range(1));
  Corpus& corpus = Corpus::Get();
  const auto queries = corpus.Queries({small, large}, kQueriesPerPoint);

  SearchOptions options;
  options.algorithm = algorithm;
  WarmUp(corpus.disk());

  BatchResult batch;
  for (auto _ : state) {
    batch = RunBatch(corpus.disk(), queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["results_per_query"] =
      static_cast<double>(batch.total_results) /
      static_cast<double>(queries.size());
  state.counters["match_ops_per_query"] =
      static_cast<double>(batch.stats.match_ops) /
      static_cast<double>(queries.size());
  state.counters["postings_per_query"] =
      static_cast<double>(batch.stats.postings_read) /
      static_cast<double>(queries.size());
}

void Fig8Args(benchmark::internal::Benchmark* b) {
  for (int64_t small : {10, 100, 1000}) {
    for (int64_t large : {10, 100, 1000, 10000, 100000}) {
      if (large >= small) b->Args({small, large});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig8, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig8Args);
BENCHMARK_CAPTURE(RunFig8, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig8Args);
BENCHMARK_CAPTURE(RunFig8, Stack, AlgorithmChoice::kStack)->Apply(Fig8Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
