// Figure 13: varying the number of keywords with equal-size lists, cold
// cache. With no skew the three algorithms fault in comparable numbers
// of pages; the cursor-scan variants win on constant factors, and the
// Indexed Lookup probes cost extra internal-node descents.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunFig13(benchmark::State& state, AlgorithmChoice algorithm) {
  const uint64_t frequency = static_cast<uint64_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  Corpus& corpus = Corpus::Get();

  const std::vector<uint64_t> frequencies(static_cast<size_t>(k), frequency);
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

void Fig13Args(benchmark::internal::Benchmark* b) {
  for (int64_t frequency : {10, 100, 1000, 10000}) {
    for (int64_t k : {2, 3, 4, 5}) {
      b->Args({frequency, k});
    }
  }
  b->Unit(benchmark::kMillisecond)->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunFig13, IndexedLookup,
                  AlgorithmChoice::kIndexedLookupEager)
    ->Apply(Fig13Args);
BENCHMARK_CAPTURE(RunFig13, ScanEager, AlgorithmChoice::kScanEager)
    ->Apply(Fig13Args);
BENCHMARK_CAPTURE(RunFig13, Stack, AlgorithmChoice::kStack)->Apply(Fig13Args);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
