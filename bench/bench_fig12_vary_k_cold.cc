// Figure 12: varying the number of keywords (one small list, the rest at
// frequency 100,000), cold cache. See bench_fig11 for the cold protocol.
//
// Expected shape: each extra 100,000-node list adds only ~2|S1| probe
// descents for Indexed Lookup, but a full list's worth of page faults
// for Scan Eager and Stack.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig12(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t small = static_cast<uint64_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  Corpus& corpus = Corpus::Get();

  std::vector<uint64_t> frequencies = {small};
  for (int i = 1; i < k; ++i) frequencies.push_back(100000);
  const auto queries = corpus.Queries(frequencies, kQueriesPerPoint);

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
}

void Fig12Args(benchmark::internal::Benchmark* b) {
  for (int64_t small : {10, 100, 1000, 10000}) {
    for (int64_t k : {2, 3, 4, 5}) {
      b->Args({small, k});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig12, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig12Args);
BENCHMARK_CAPTURE(RunFig12, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig12Args);
BENCHMARK_CAPTURE(RunFig12, Stack, AlgorithmChoice::kStack)->Apply(Fig12Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
