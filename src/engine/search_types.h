#ifndef XKSEARCH_ENGINE_SEARCH_TYPES_H_
#define XKSEARCH_ENGINE_SEARCH_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dewey/dewey_id.h"
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

/// \brief Per-query options (shared by XKSearch and DiskSearcher): what
/// the query asks, not where it runs. The engine picks the storage, and
/// chunked execution (ParallelExecOptions) is a separate argument of the
/// Search calls.
struct SearchOptions {
  AlgorithmChoice algorithm = AlgorithmChoice::kAuto;
  /// Answer semantics; kElca and kAllLca ignore `algorithm` (kElca is
  /// stack-based, kAllLca pipelines on Indexed Lookup Eager).
  Semantics semantics = Semantics::kSlca;
  /// Buffer size B for eager delivery (see SlcaOptions::block_size).
  size_t block_size = 1;
  /// kAuto picks Indexed Lookup when max frequency / min frequency is at
  /// least this ratio. The crossover in the paper's Figures 8-13 sits
  /// near equal frequencies, so a small ratio favors IL correctly.
  double auto_ratio_threshold = 8.0;

  /// Every field is part of the query's identity: the serving layer's
  /// result-cache key (serve::QueryCacheKey) encodes each of them.
  friend bool operator==(const SearchOptions&,
                         const SearchOptions&) = default;
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
