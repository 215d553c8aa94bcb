#ifndef XKSEARCH_ENGINE_SEARCH_TYPES_H_
#define XKSEARCH_ENGINE_SEARCH_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dewey/dewey_id.h"
#include "slca/parallel.h"
#include "slca/slca.h"

namespace xksearch {

/// Algorithm choice for a query; kAuto applies the paper's guidance —
/// Indexed Lookup when the keyword frequencies differ significantly,
/// Scan Eager when they are similar.
enum class AlgorithmChoice {
  kAuto,
  kIndexedLookupEager,
  kScanEager,
  kStack,
};

/// Which answer set a query computes. The three semantics nest:
/// slca ⊆ elca ⊆ lca.
enum class Semantics {
  /// Smallest LCAs — the paper's primary semantics.
  kSlca,
  /// Exhaustive LCAs (XRANK [13]): covering nodes with witnesses of
  /// their own outside any covering descendant.
  kElca,
  /// All LCAs (Section 5).
  kAllLca,
};

/// \brief Per-query options (shared by XKSearch and DiskSearcher).
struct SearchOptions {
  AlgorithmChoice algorithm = AlgorithmChoice::kAuto;
  /// Answer semantics; kElca and kAllLca ignore `algorithm` (kElca is
  /// stack-based, kAllLca pipelines on Indexed Lookup Eager).
  Semantics semantics = Semantics::kSlca;
  /// Evaluate against the disk index (if built) instead of the in-memory
  /// lists; "disk accesses" then appear in the returned stats.
  bool use_disk_index = false;
  /// In-memory layout escape hatch: by default lm/rm probe the packed
  /// (prefix-truncated, skip-table) posting lists with gallop hints;
  /// false materializes plain `std::vector<DeweyId>` lists per query and
  /// runs the classic binary searches over them. Result sets and
  /// match-operation counts are identical — the knob exists for
  /// differential testing and layout benchmarks. Ignored on the disk
  /// path.
  bool use_packed_lists = true;
  /// Buffer size B for eager delivery (see SlcaOptions::block_size).
  size_t block_size = 1;
  /// kAuto picks Indexed Lookup when max frequency / min frequency is at
  /// least this ratio. The crossover in the paper's Figures 8-13 sits
  /// near equal frequencies, so a small ratio favors IL correctly.
  double auto_ratio_threshold = 8.0;
  /// Intra-query chunked execution for the eager SLCA algorithms. Pure
  /// execution config: chunked and sequential runs return the same result
  /// set and Table-1 counters, so this field is deliberately excluded
  /// from equality and from the result cache's key — cached results
  /// remain valid across executor configurations (same reasoning as the
  /// serving layer's shard_exec).
  ParallelExecOptions slca_exec;

  /// Memberwise equality over the *semantic* fields: the ones the serving
  /// layer's result-cache key (serve::QueryCacheKey) encodes, and any new
  /// semantic field must go into both. slca_exec is intentionally not
  /// compared.
  friend bool operator==(const SearchOptions& a, const SearchOptions& b) {
    return a.algorithm == b.algorithm && a.semantics == b.semantics &&
           a.use_disk_index == b.use_disk_index &&
           a.use_packed_lists == b.use_packed_lists &&
           a.block_size == b.block_size &&
           a.auto_ratio_threshold == b.auto_ratio_threshold;
  }
};

/// \brief Result of one keyword search.
struct SearchResult {
  /// Root nodes of the answer subtrees, in document order.
  std::vector<DeweyId> nodes;
  /// The algorithm that actually ran (kAuto resolved).
  SlcaAlgorithm algorithm;
  /// Operation counters for this query.
  QueryStats stats;
  /// Keywords after normalization, reordered by increasing frequency
  /// (the order the lists were fed to the algorithm).
  std::vector<std::string> keywords;
};

/// Resolves kAuto using the frequency extremes of the query's lists.
inline SlcaAlgorithm ResolveAlgorithmChoice(const SearchOptions& options,
                                            uint64_t min_freq,
                                            uint64_t max_freq) {
  switch (options.algorithm) {
    case AlgorithmChoice::kIndexedLookupEager:
      return SlcaAlgorithm::kIndexedLookupEager;
    case AlgorithmChoice::kScanEager:
      return SlcaAlgorithm::kScanEager;
    case AlgorithmChoice::kStack:
      return SlcaAlgorithm::kStack;
    case AlgorithmChoice::kAuto:
      break;
  }
  // The paper's rule of thumb: Indexed Lookup wins when frequencies
  // differ significantly, Scan Eager when they are similar.
  if (min_freq == 0 || static_cast<double>(max_freq) >=
                           options.auto_ratio_threshold *
                               static_cast<double>(min_freq)) {
    return SlcaAlgorithm::kIndexedLookupEager;
  }
  return SlcaAlgorithm::kScanEager;
}

}  // namespace xksearch

#endif  // XKSEARCH_ENGINE_SEARCH_TYPES_H_
