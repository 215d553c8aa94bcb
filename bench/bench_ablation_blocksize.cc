// Ablation X1: the Indexed Lookup Eager buffer size B (Section 3.1).
//
// B controls how eagerly confirmed SLCAs are delivered: with B = 1 the
// first answer is pipelined out as soon as Lemma 2 confirms it; with
// B = |S1| the algorithm degenerates into a blocking one that reports
// everything at the end. The result set never changes — only the latency
// to the first answer does — so this ablation measures both total batch
// time and the time until the first emitted SLCA.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

void RunBlockSize(benchmark::State& state) {
  const size_t block_size = static_cast<size_t>(state.range(0));
  Corpus& corpus = Corpus::Get();
  // Sizeable small list so that emission batching is visible.
  const auto queries = corpus.Queries({10000, 100000}, 8);

  SearchOptions options;
  options.algorithm = AlgorithmChoice::kIndexedLookupEager;
  options.block_size = block_size;
  WarmUp(corpus.disk());

  double first_result_us = 0;
  size_t timed_queries = 0;
  for (auto _ : state) {
    for (const auto& query : queries) {
      const Clock::time_point start = Clock::now();
      bool first = true;
      Result<SearchResult> result = corpus.disk().SearchStreaming(
          query, options, [&](const DeweyId&) {
            if (first) {
              first_result_us += std::chrono::duration<double, std::micro>(
                                     Clock::now() - start)
                                     .count();
              first = false;
            }
          });
      CheckOk(result.status(), "SearchStreaming");
      if (!first) ++timed_queries;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["first_result_us"] =
      timed_queries == 0 ? 0.0
                         : first_result_us / static_cast<double>(timed_queries);
}

BENCHMARK(RunBlockSize)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(100000)  // effectively blocking: B >= |S1|
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.1);

}  // namespace
}  // namespace bench
}  // namespace xksearch

BENCHMARK_MAIN();
