#ifndef XKSEARCH_ENGINE_QUERY_EXECUTOR_H_
#define XKSEARCH_ENGINE_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "engine/search_types.h"
#include "index/inverted_index.h"
#include "index/tokenizer.h"
#include "slca/keyword_list.h"
#include "slca/parallel.h"
#include "slca/slca.h"
#include "storage/disk_index.h"

namespace xksearch {

/// \brief A keyword query normalized and bound to keyword lists, ready
/// for one of the SLCA algorithms.
///
/// Shared between the in-memory and the disk execution paths of the
/// engine: normalization, frequency lookup and the smallest-list-first
/// ordering (Section 3's choice of S1) are identical in both.
struct PreparedQuery {
  /// Normalized keywords, ordered by increasing frequency.
  std::vector<std::string> keywords;
  /// Matching list adapters, same order. Missing keywords get an
  /// EmptyKeywordList so the algorithms still see k lists.
  std::vector<std::unique_ptr<KeywordList>> lists;
  /// Frequency extremes, for algorithm auto-selection.
  uint64_t min_frequency = 0;
  uint64_t max_frequency = 0;
  /// True iff some keyword does not occur at all (result will be empty).
  bool missing = false;
  /// Raw views of `lists`, cached at assembly so the per-query hot path
  /// does not allocate a fresh vector per call. The pointees live on the
  /// heap, so moving the struct keeps them valid.
  std::vector<KeywordList*> pointers;

  const std::vector<KeywordList*>& list_pointers() const { return pointers; }
};

/// Prepares a query against the in-memory inverted index: the list
/// adapters probe the index's packed posting arenas directly. `stats` is
/// captured by the adapters and must outlive the execution.
Result<PreparedQuery> PrepareQuery(const InvertedIndex& index,
                                   const std::vector<std::string>& keywords,
                                   const TokenizerOptions& tokenizer,
                                   QueryStats* stats);

/// Prepares a query against a disk index (its dictionary doubles as the
/// frequency table).
Result<PreparedQuery> PrepareQuery(const DiskIndex& index,
                                   const std::vector<std::string>& keywords,
                                   const TokenizerOptions& tokenizer,
                                   QueryStats* stats);

/// The execution body both engines share, run right after PrepareQuery:
/// resolves kAuto, then runs the algorithm of `options.semantics` over the
/// prepared lists and streams the answers to `emit`. A query with a
/// keyword that occurs nowhere yields nothing. Fills `result->keywords`
/// and `result->algorithm`; the counters land in the stats the lists were
/// prepared with. `exec` splits eager SLCA queries into chunks.
Status ExecutePreparedQuery(const PreparedQuery& prepared,
                            const SearchOptions& options,
                            const ParallelExecOptions& exec,
                            const ResultCallback& emit, SearchResult* result);

/// ExecutePreparedQuery collecting the answers into `result->nodes`, in
/// document order (ELCA and All-LCA emit out of order and are sorted).
Status CollectPreparedQuery(const PreparedQuery& prepared,
                            const SearchOptions& options,
                            const ParallelExecOptions& exec,
                            SearchResult* result);

}  // namespace xksearch

#endif  // XKSEARCH_ENGINE_QUERY_EXECUTOR_H_
