#ifndef XKSEARCH_SLCA_SLCA_H_
#define XKSEARCH_SLCA_SLCA_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "dewey/dewey_id.h"
#include "slca/keyword_list.h"

namespace xksearch {

/// Receives each result node as soon as it is confirmed ("eager",
/// pipelined delivery — paper Section 3.1).
using ResultCallback = std::function<void(const DeweyId&)>;

/// \brief Tuning knobs shared by the SLCA algorithms.
struct SlcaOptions {
  /// The paper's buffer size B for the Indexed Lookup Eager algorithm:
  /// nodes of S1 are processed in blocks of `block_size`, and confirmed
  /// SLCAs are delivered at block boundaries. 1 = maximally eager (first
  /// answer as early as possible); larger values batch delivery. Does not
  /// affect the result set.
  size_t block_size = 1;
};

/// \brief Caller-reused landing ids for the lm/rm results of a chain's
/// match steps: their capacity is kept from step to step, so a warm step
/// allocates nothing.
struct MatchScratch {
  DeweyId lm;
  DeweyId rm;
};

/// \brief One step of the Indexed Lookup chain (paper Properties 1-3):
/// replaces `*x` by slca({x}, S), the deeper of lca(x, lm(x, S)) and
/// lca(x, rm(x, S)). Both candidates are prefixes of x, so the step only
/// truncates x in place, to the longer of the two common-prefix lengths;
/// x becomes the empty id iff the list is empty. lm and rm land in
/// `scratch`. Charges two match operations and one LCA computation per
/// match found to `stats`.
Status MatchStep(KeywordList* list, DeweyId* x, MatchScratch* scratch,
                 QueryStats* stats);

/// \brief The Scan Eager match step over one keyword list: lm/rm by a
/// forward-only cursor instead of tree or binary-search probes.
///
/// Probe targets regress only to ancestors of earlier targets (every
/// chain value is an ancestor-or-self of its S1 node, and S1 is scanned
/// in order), so a forward-only cursor suffices: if the last passed
/// element turns out to be a descendant of the current target x, some
/// list element lies inside subtree(x) and the step result is pinned to
/// x itself.
class ScanMatcher {
 public:
  explicit ScanMatcher(QueryStats* stats) : stats_(stats) {}

  /// Opens the cursor at the head of `list`.
  Status Init(KeywordList* list);

  /// Opens the cursor mid-list for a chunk whose first S1 element is
  /// `seed`: at the lower bound of `seed`, with the list element just
  /// before it as the passed element. That pair is exactly the state a
  /// sequential cursor can reach, because every probe target is an
  /// ancestor-or-self of its S1 node: any list element e with
  /// target <= e < seed lies inside the target's subtree (Dewey
  /// intervals nest), so skipping it only ever skips elements the pinned
  /// check already accounts for.
  Status Init(KeywordList* list, const DeweyId& seed);

  /// Replaces `*x` by slca({x}, S) for this list, truncating in place.
  /// Charges exactly what MatchStep charges for the same x, so
  /// match_ops agrees with Indexed Lookup Eager.
  Status Step(DeweyId* x);

 private:
  /// Reads the first element after the seek into cur_.
  Status Start();

  std::unique_ptr<KeywordListIterator> iter_;
  std::optional<BlockedListCursor> cursor_;
  QueryStats* stats_;
  /// The last passed element and the cursor front, as views into the
  /// cursor's decoded block. prev_ points into prev_store_ instead when
  /// it came from a seek or outlived the block it was decoded into.
  DeweyView prev_;
  DeweyView cur_;
  DeweyId prev_store_;
  bool prev_valid_ = false;
  bool cur_valid_ = false;
};

/// \brief The Indexed Lookup Eager algorithm (paper Algorithm 1/2).
///
/// `lists[0]` should be the smallest list (the query engine orders lists
/// by frequency); correctness does not depend on the order, only cost.
/// For each v in S1 the chain of MatchStep calls over lists[1..k-1]
/// truncates one reused copy of v to slca({v}, S2, ..., Sk); Lemma 1
/// discards out-of-order candidates and Lemma 2 confirms a candidate as
/// soon as its successor is not its descendant. Main-memory cost
/// O(k d |S1| log |S|).
/// Results arrive through `emit` in document order, duplicate-free.
Status IndexedLookupEagerSlca(const std::vector<KeywordList*>& lists,
                              const SlcaOptions& options, QueryStats* stats,
                              const ResultCallback& emit);

/// \brief The Scan Eager variant (paper Section 3.2): identical driver,
/// but lm/rm are implemented by advancing one cursor per keyword list,
/// exploiting the fact that probes into each list are nondecreasing.
/// Cost O(d * sum |Si| + k d |S1|); preferable when frequencies are close.
Status ScanEagerSlca(const std::vector<KeywordList*>& lists,
                     const SlcaOptions& options, QueryStats* stats,
                     const ResultCallback& emit);

/// \brief The Stack algorithm (paper Section 3.3): XRANK's sort-merge
/// stack [13] modified to return SLCAs. Merges all k lists in document
/// order and maintains a stack of Dewey components with per-keyword
/// containment flags. Cost O(k d * sum |Si|); always reads every list
/// in full.
Status StackSlca(const std::vector<KeywordList*>& lists,
                 const SlcaOptions& options, QueryStats* stats,
                 const ResultCallback& emit);

enum class SlcaAlgorithm {
  kIndexedLookupEager,
  kScanEager,
  kStack,
};

std::string ToString(SlcaAlgorithm algorithm);

/// Dispatches to one of the three algorithms.
Status ComputeSlca(SlcaAlgorithm algorithm,
                   const std::vector<KeywordList*>& lists,
                   const SlcaOptions& options, QueryStats* stats,
                   const ResultCallback& emit);

/// Convenience wrapper collecting the results into a vector.
Result<std::vector<DeweyId>> ComputeSlcaList(
    SlcaAlgorithm algorithm, const std::vector<KeywordList*>& lists,
    const SlcaOptions& options = {}, QueryStats* stats = nullptr);

}  // namespace xksearch

#endif  // XKSEARCH_SLCA_SLCA_H_
