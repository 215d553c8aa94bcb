#ifndef XKSEARCH_SLCA_PARALLEL_H_
#define XKSEARCH_SLCA_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "dewey/dewey_id.h"
#include "serve/thread_pool.h"
#include "slca/keyword_list.h"
#include "slca/slca.h"

namespace xksearch {

/// \brief Process-wide cap on extra intra-query workers.
///
/// Chunked SLCA execution composes with the other fan-out layers (the
/// serve pool across queries, scatter-gather across shards); without a
/// shared cap, Q concurrent queries × S shards × C chunks could request
/// Q·S·C threads of work for a machine with a handful of cores. Every
/// *extra* chunk worker (beyond the coordinating thread, which always
/// runs its own chunk) takes a token; a chunk that gets no token simply
/// runs inline on the coordinator — results are identical either way, so
/// the budget only shapes execution, never answers.
class ConcurrencyBudget {
 public:
  explicit ConcurrencyBudget(size_t tokens) : tokens_(tokens) {}

  ConcurrencyBudget(const ConcurrencyBudget&) = delete;
  ConcurrencyBudget& operator=(const ConcurrencyBudget&) = delete;

  /// Takes one token; false when none are available.
  bool TryAcquire() {
    size_t cur = tokens_.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (tokens_.compare_exchange_weak(cur, cur - 1,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void Release() { tokens_.fetch_add(1, std::memory_order_relaxed); }

  size_t available() const { return tokens_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> tokens_;
};

/// \brief Intra-query execution knobs for the chunked eager algorithms.
///
/// The engines' Search calls take it beside SearchOptions: chunked and
/// sequential execution produce the same result set.
struct ParallelExecOptions {
  /// Pool the extra chunk workers run on; nullptr = sequential. The
  /// coordinating thread always executes at least its own chunk, so the
  /// pool is never waited on for forward progress (a chunk that cannot
  /// be enqueued runs inline).
  serve::ThreadPool* pool = nullptr;
  /// Optional shared token budget capping the total number of extra
  /// chunk workers across nested shard x chunk fan-out; nullptr = only
  /// the pool's own capacity limits concurrency.
  ConcurrencyBudget* budget = nullptr;
  /// Upper bound on chunks per query; <= 1 disables chunking.
  size_t max_chunks = 1;
  /// Minimum S1 elements per chunk; splitting below this threshold costs
  /// more in seam work and task dispatch than the chunk saves.
  uint64_t min_chunk_elements = 1024;
};

/// \brief Chunked Indexed Lookup Eager / Scan Eager execution.
///
/// Partitions S1 (the smallest list) into contiguous chunks, runs the
/// per-chunk eager chain on pool workers — lm/rm probes hit the shared
/// immutable arenas and the sharded buffer pools concurrently, no
/// per-chunk copies — then a sequential stitch pass over the per-chunk
/// ordered candidate outputs re-applies Lemma 1 (discard a candidate
/// that is <= , i.e. an ancestor of, its cross-seam successor's chain
/// value) and Lemma 2 (confirm a chunk's final pending candidate against
/// the next chunk's first surviving candidate), emitting in document
/// order with SlcaOptions::block_size buffered delivery. Per-chunk
/// QueryStats are summed into `stats`.
///
/// The result set, `match_ops` and `results` counters are exactly those
/// of the sequential algorithm (the differential fuzzer asserts this);
/// comparison/posting/page counters can differ by small seam terms.
///
/// Falls back to the sequential ComputeSlca — bit-identical behaviour —
/// when chunking is off (max_chunks <= 1, null pool), the algorithm is
/// kStack (inherently a full k-way merge), or the backend/list is too
/// small to split.
Status ComputeSlcaParallel(SlcaAlgorithm algorithm,
                           const std::vector<KeywordList*>& lists,
                           const SlcaOptions& options,
                           const ParallelExecOptions& exec, QueryStats* stats,
                           const ResultCallback& emit);

namespace internal {

/// One chunk's ordered candidate output, pre-stitch: `confirmed` are the
/// candidates confirmed by an in-chunk successor (Lemma 2 locally),
/// `pending` the chunk's final running-maximum candidate whose
/// confirmation needs the next chunk (or end of query). `results` is NOT
/// charged by chunk workers — only the stitch emits.
struct ChunkOutput {
  Status status;
  std::vector<DeweyId> confirmed;
  DeweyId pending;
  bool has_pending = false;
  QueryStats stats;
};

/// The sequential seam pass, exposed for direct unit testing: feeds one
/// chunk's output through the cross-seam Lemma 1/2 filter and emits
/// confirmed results (charging stats->results) in document order.
class Stitcher {
 public:
  Stitcher(size_t block_size, QueryStats* stats, const ResultCallback& emit)
      : block_size_(block_size == 0 ? 1 : block_size),
        stats_(stats),
        emit_(emit) {}

  /// Folds in the next chunk's output, in chunk order.
  void Add(const ChunkOutput& chunk);
  /// Confirms the final pending candidate and flushes buffered results.
  void Finish();

 private:
  void Deliver(const DeweyId& id);
  void FlushBlock();

  size_t block_size_;
  QueryStats* stats_;
  const ResultCallback& emit_;
  DeweyId pending_;  // cross-chunk running candidate (the "g" of the proof)
  bool has_pending_ = false;
  std::vector<DeweyId> buffered_;
};

}  // namespace internal

}  // namespace xksearch

#endif  // XKSEARCH_SLCA_PARALLEL_H_
