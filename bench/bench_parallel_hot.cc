// Scalability micro-experiment: concurrent read-only queries over the
// in-memory index (the paper's system serves one web user at a time; a
// production deployment would multiplex). Query state is per-call and
// the index is immutable after build, so throughput should scale with
// threads until memory bandwidth saturates.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunParallel(benchmark::State& state) {
  Corpus& corpus = Corpus::Get();
  // One skewed query on the in-memory engine, so no shared buffer pool
  // is involved.
  const auto queries = corpus.Queries({10, 100000}, 8);
  SearchOptions options;
  options.algorithm = AlgorithmChoice::kIndexedLookupEager;

  for (auto _ : state) {
    const BatchResult batch = RunBatch(corpus.system(), queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

BENCHMARK(RunParallel)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
