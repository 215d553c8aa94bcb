// Ablation X5: the algorithm auto-selection threshold. The engine picks
// Indexed Lookup Eager when max_freq/min_freq >= threshold, else Scan
// Eager (the paper's guidance, Section 6). This sweep runs a mixed
// workload — skewed and balanced queries — under different thresholds:
// threshold 1 forces IL everywhere, a huge threshold forces Scan
// everywhere, and intermediate values should dominate both extremes.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunThreshold(benchmark::State& state) {
  const double threshold = static_cast<double>(state.range(0));
  Corpus& corpus = Corpus::Get();

  // A mixed workload: heavy skew, mild skew, and balanced shapes.
  std::vector<std::vector<std::string>> queries;
  for (const std::vector<uint64_t>& shape :
       {std::vector<uint64_t>{10, 100000}, std::vector<uint64_t>{100, 10000},
        std::vector<uint64_t>{1000, 10000}, std::vector<uint64_t>{1000, 1000},
        std::vector<uint64_t>{10000, 10000}}) {
    for (auto& q : corpus.Queries(shape, 8)) queries.push_back(std::move(q));
  }

  SearchOptions options;
  options.algorithm = AlgorithmChoice::kAuto;
  options.auto_ratio_threshold = threshold;
  WarmUp(corpus.disk());

  BatchResult batch;
  for (auto _ : state) {
    batch = RunBatch(corpus.disk(), queries, options);
    benchmark::DoNotOptimize(batch.total_results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

BENCHMARK(RunThreshold)
    ->Arg(1)          // always Indexed Lookup
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)          // the engine default
    ->Arg(16)
    ->Arg(64)
    ->Arg(1000000)    // always Scan Eager
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
