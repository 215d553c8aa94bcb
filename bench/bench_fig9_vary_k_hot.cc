// Figure 9: varying the number of keywords with frequencies held
// constant, hot cache. Each query has one "small" list (frequency 10 /
// 100 / 1000 / 10000) and k-1 lists at frequency 100,000.
//
// Expected shape: Indexed Lookup Eager's cost grows only mildly with k
// (it performs 2(k-1)|S1| probes); Scan Eager and Stack pay for reading
// every added 100,000-node list in full.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig9(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t small = static_cast<uint64_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  Corpus& corpus = Corpus::Get();

  std::vector<uint64_t> frequencies = {small};
  for (int i = 1; i < k; ++i) frequencies.push_back(100000);
  const auto queries = corpus.Queries(frequencies, kQueriesPerPoint);

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
  state.counters["postings_per_query"] =
      static_cast<double>(batch.stats.postings_read) /
      static_cast<double>(queries.size());
}

void Fig9Args(benchmark::internal::Benchmark* b) {
  for (int64_t small : {10, 100, 1000, 10000}) {
    for (int64_t k : {2, 3, 4, 5}) {
      b->Args({small, k});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig9, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig9Args);
BENCHMARK_CAPTURE(RunFig9, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig9Args);
BENCHMARK_CAPTURE(RunFig9, Stack, AlgorithmChoice::kStack)->Apply(Fig9Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
