// Experiment X3 (Section 5 extension): the cost of the ELCA (XRANK) and
// all-LCA semantics
// relative to only the smallest ones. The ancestor-checking pass adds at
// most 2k right-match probes per ancestor of each SLCA, so on shallow
// DBLP-like trees the overhead stays within a small constant factor.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

void RunSemantics(benchmark::State& state, Semantics semantics) {
  const uint64_t small = static_cast<uint64_t>(state.range(0));
  const uint64_t large = static_cast<uint64_t>(state.range(1));
  Corpus& corpus = Corpus::Get();
  const auto queries = corpus.Queries({small, large}, kQueriesPerPoint);

  SearchOptions options;
  options.algorithm = AlgorithmChoice::kIndexedLookupEager;
  options.semantics = semantics;
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
}

void SemanticsArgs(benchmark::internal::Benchmark* b) {
  b->Args({10, 1000})
      ->Args({10, 100000})
      ->Args({1000, 100000})
      ->Args({10000, 100000})
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.1);
}

BENCHMARK_CAPTURE(RunSemantics, Slca, Semantics::kSlca)->Apply(SemanticsArgs);
BENCHMARK_CAPTURE(RunSemantics, Elca, Semantics::kElca)->Apply(SemanticsArgs);
BENCHMARK_CAPTURE(RunSemantics, AllLca, Semantics::kAllLca)
    ->Apply(SemanticsArgs);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
