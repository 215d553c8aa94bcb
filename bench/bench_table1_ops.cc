// Table 1: the paper's complexity summary, validated empirically.
//
//   algorithm | main-memory complexity    | disk accesses          | # ops
//   ----------+---------------------------+------------------------+------
//   IL        | O(k d |S1| log |S|)       | O(k |S1| (1 + log_B))  | 2(k-1)|S1| matches
//   Scan      | O(d sum|Si| + k d |S1|)   | O(sum |Si| / B)        | 2(k-1)|S1| matches
//   Stack     | O(k d sum|Si|)            | O(sum |Si| / B)        | merge of all lists
//
// This binary runs every algorithm across (|S1|, |Sk|, k) configurations
// and prints measured counters next to the analytic predictions, so the
// table's growth laws can be checked row by row: IL's counters must track
// |S1| log |S| and be independent of |Sk| otherwise; Scan/Stack counters
// must track sum |Si|.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace xksearch {
namespace bench {
namespace {

struct Config {
  uint64_t small;
  uint64_t large;
  int k;
};

void PrintHeader() {
  std::printf(
      "%-14s %8s %8s %2s | %12s %12s | %12s %12s | %10s %12s\n", "algorithm",
      "|S1|", "|Sk|", "k", "match_ops", "2(k-1)|S1|", "postings",
      "sum|Si|", "page_reads", "dewey_cmp");
  std::printf(
      "-------------------------------------------------------------------"
      "-------------------------------------------------\n");
}

void RunConfig(const DiskSearcher& disk, const Config& config) {
  Corpus& corpus = Corpus::Get();
  std::vector<uint64_t> frequencies = {config.small};
  for (int i = 1; i < config.k; ++i) frequencies.push_back(config.large);
  const auto queries = corpus.Queries(frequencies, 8);

  const uint64_t sum_si =
      config.small + static_cast<uint64_t>(config.k - 1) * config.large;
  const uint64_t predicted_matches =
      2 * static_cast<uint64_t>(config.k - 1) * config.small;

  for (AlgorithmChoice choice :
       {AlgorithmChoice::kIndexedLookupEager, AlgorithmChoice::kScanEager,
        AlgorithmChoice::kStack}) {
    SearchOptions options;
    options.algorithm = choice;
    const BatchResult batch = RunBatchCold(disk, queries, options);
    const double n = static_cast<double>(queries.size());
    std::printf(
        "%-14s %8" PRIu64 " %8" PRIu64 " %2d | %12.0f %12" PRIu64
        " | %12.0f %12" PRIu64 " | %10.0f %12.0f\n",
        choice == AlgorithmChoice::kIndexedLookupEager ? "IndexedLookup"
        : choice == AlgorithmChoice::kScanEager        ? "ScanEager"
                                                       : "Stack",
        config.small, config.large, config.k,
        static_cast<double>(batch.stats.match_ops) / n,
        choice == AlgorithmChoice::kStack ? uint64_t{0} : predicted_matches,
        static_cast<double>(batch.stats.postings_read) / n, sum_si,
        static_cast<double>(batch.stats.page_reads) / n,
        static_cast<double>(batch.stats.dewey_comparisons) / n);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace xksearch

int main() {
  using xksearch::bench::Config;
  using xksearch::bench::Corpus;

  Corpus& corpus = Corpus::Get();
  std::printf("\nTable 1 reproduction: measured per-query operation counts "
              "(cold cache, avg of 8 queries)\n\n");
  xksearch::bench::PrintHeader();

  const std::vector<Config> configs = {
      {10, 10, 2},       {10, 1000, 2},    {10, 100000, 2},
      {100, 100000, 2},  {1000, 100000, 2}, {10000, 100000, 2},
      {10, 100000, 3},   {10, 100000, 5},  {1000, 1000, 3},
  };
  for (const Config& config : configs) {
    xksearch::bench::RunConfig(corpus.disk(), config);
  }

  std::printf(
      "Reading the table: IndexedLookup's match_ops column must equal the\n"
      "2(k-1)|S1| prediction and stay flat as |Sk| grows; ScanEager's and\n"
      "Stack's postings column must track sum|Si|. Page reads follow the\n"
      "same laws with the per-page blocking factor divided out.\n");
  return 0;
}
