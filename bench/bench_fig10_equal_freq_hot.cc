// Figure 10: varying the number of keywords with all keyword lists the
// same size (10 / 100 / 1000 / 10000), hot cache.
//
// Expected shape: with no skew to exploit, Scan Eager is the best
// variant — Indexed Lookup pays a log factor per probe for nothing, and
// Stack is close to Scan but carries the full merge machinery.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig10(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t frequency = static_cast<uint64_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  Corpus& corpus = Corpus::Get();

  const std::vector<uint64_t> frequencies(static_cast<size_t>(k), frequency);
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
}

void Fig10Args(benchmark::internal::Benchmark* b) {
  for (int64_t frequency : {10, 100, 1000, 10000}) {
    for (int64_t k : {2, 3, 4, 5}) {
      b->Args({frequency, k});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig10, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig10Args);
BENCHMARK_CAPTURE(RunFig10, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig10Args);
BENCHMARK_CAPTURE(RunFig10, Stack, AlgorithmChoice::kStack)->Apply(Fig10Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
