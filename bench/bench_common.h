#ifndef XKSEARCH_BENCH_BENCH_COMMON_H_
#define XKSEARCH_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/disk_searcher.h"
#include "engine/xksearch.h"

namespace xksearch {
namespace bench {

/// Frequency classes used throughout the paper's evaluation (Section 6).
inline constexpr uint64_t kFrequencies[] = {10, 100, 1000, 10000, 100000};

/// Number of queries averaged per experiment point ("a program randomly
/// chose forty queries for each experiment").
inline constexpr size_t kQueriesPerPoint = 40;

/// \brief The shared benchmark corpus: a DBLP-shaped document sized like
/// the paper's 83 MB snapshot, with keyword families planted at the exact
/// frequencies the experiments sweep.
///
/// Built once per benchmark binary (lazily); the scale can be reduced via
/// the XKS_BENCH_PAPERS environment variable (default 100000 papers,
/// which supports the full 100,000 frequency class).
class Corpus {
 public:
  /// The singleton instance, built on first use.
  static Corpus& Get();

  XKSearch& system() const { return *system_; }
  /// The disk engine over the same index.
  DiskSearcher& disk() const { return *disk_; }

  /// All planted keywords with exactly `frequency` occurrences. Classes
  /// above the corpus size are clamped to it (still reported under the
  /// requested class so sweeps stay uniform).
  const std::vector<std::string>& KeywordsFor(uint64_t frequency) const;

  /// `count` deterministic pseudo-random queries whose i-th keyword has
  /// frequency `frequencies[i]`; keywords within a query are distinct.
  std::vector<std::vector<std::string>> Queries(
      const std::vector<uint64_t>& frequencies, size_t count) const;

  size_t papers() const { return papers_; }

 private:
  Corpus();

  size_t papers_;
  std::unique_ptr<XKSearch> system_;
  std::unique_ptr<DiskSearcher> disk_;
  std::vector<std::pair<uint64_t, std::vector<std::string>>> families_;
};

/// Dies with a message if `status` is not OK.
void CheckOk(const Status& status, const char* what);

/// Runs one query batch on either engine and returns accumulated stats;
/// aborts the process on error (benchmarks have no useful failure mode).
struct BatchResult {
  QueryStats stats;
  size_t total_results = 0;
};
template <typename Engine>
BatchResult RunBatch(const Engine& engine,
                     const std::vector<std::vector<std::string>>& queries,
                     const SearchOptions& options) {
  BatchResult out;
  for (const std::vector<std::string>& query : queries) {
    Result<SearchResult> result = engine.Search(query, options);
    CheckOk(result.status(), "Search");
    out.stats += result->stats;
    out.total_results += result->nodes.size();
  }
  return out;
}

/// Cold-cache variant: drops the disk index's buffer pool before every
/// query, so stats.page_reads reflects a cold run of each query (the
/// paper's Figures 11-13 setting).
BatchResult RunBatchCold(const DiskSearcher& disk,
                         const std::vector<std::vector<std::string>>& queries,
                         const SearchOptions& options);

/// Ensures the buffer pool is fully warmed (hot-cache experiments).
void WarmUp(const DiskSearcher& disk);

}  // namespace bench
}  // namespace xksearch

#endif  // XKSEARCH_BENCH_BENCH_COMMON_H_
