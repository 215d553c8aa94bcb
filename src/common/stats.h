#ifndef XKSEARCH_COMMON_STATS_H_
#define XKSEARCH_COMMON_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace xksearch {

/// \brief A copyable uint64 counter whose increments are atomic.
///
/// All accesses use std::memory_order_relaxed: the counters are pure
/// monotonic tallies — no reader derives a happens-before edge from them,
/// and aggregate values are only interpreted after the threads that
/// produced them have been joined (or some other external synchronization
/// point), which already orders the memory. Relaxed atomics therefore
/// give race-free concurrent increments at roughly the cost of a plain
/// add, without the fences seq_cst would insert on every hot-path bump.
///
/// Copy/assignment take a relaxed snapshot, so a struct of these counters
/// stays copyable; copying a counter that is concurrently incremented
/// yields some valid recent value, never a torn one. Only counters that
/// several threads bump need one (serving metrics, shard and cache
/// totals); per-query counters are plain integers (see QueryStats).
class RelaxedCounter {
 public:
  RelaxedCounter(uint64_t value = 0) : value_(value) {}  // NOLINT
  RelaxedCounter(const RelaxedCounter& other) : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    store(other.load());
    return *this;
  }
  RelaxedCounter& operator=(uint64_t value) {
    store(value);
    return *this;
  }

  uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  void store(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

  RelaxedCounter& operator+=(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return load(); }  // NOLINT

 private:
  std::atomic<uint64_t> value_;
};

/// \brief Operation counters gathered while evaluating a query.
///
/// These back the Table 1 reproduction: the paper characterizes each
/// algorithm by its number of lm/rm ("match") operations, Dewey-number
/// comparisons, and disk accesses.
///
/// Single-writer contract: every instance has exactly one writing thread
/// — a query, one chunk of a chunked query (`ChunkOutput::stats`) or one
/// shard of a scatter-gather (`SearchResult::stats` of that shard) — and
/// is summed with `+=` into its parent at a join point that already
/// orders the memory (the wait for a chunk, the gather after a shard
/// scatter). So the fields are plain integers: the innermost loops bump
/// them, and hand `&dewey_comparisons` to DeweyId::Compare, at the price
/// of a plain add.
/// An aggregate that several threads feed concurrently must not be a
/// QueryStats; the serving layer keeps its own atomic total
/// (serve::EngineStatsCounter).
struct QueryStats {
  /// Left/right match operations (lm/rm calls), the paper's "# operations".
  uint64_t match_ops = 0;
  /// Dewey number comparisons performed by match ops and merges.
  uint64_t dewey_comparisons = 0;
  /// LCA (longest-common-prefix) computations.
  uint64_t lca_ops = 0;
  /// Nodes read from keyword lists (postings touched).
  uint64_t postings_read = 0;
  /// Buffer-pool misses, i.e. the paper's "number of disk accesses".
  uint64_t page_reads = 0;
  /// Buffer-pool hits (satisfied from cache).
  uint64_t page_hits = 0;
  /// Storage read failures observed on this query's behalf: fetches that
  /// surfaced an error status. Per-shard totals sum into sharded response
  /// totals like every other counter.
  uint64_t io_errors = 0;
  /// SLCA/LCA results produced.
  uint64_t results = 0;

  void Reset() { *this = QueryStats(); }

  /// The slot DeweyId::Compare charges: `&stats->dewey_comparisons`, or
  /// null (no counting) when `stats` is null.
  static uint64_t* ComparisonSlot(QueryStats* stats) {
    return stats != nullptr ? &stats->dewey_comparisons : nullptr;
  }

  QueryStats& operator+=(const QueryStats& o) {
    match_ops += o.match_ops;
    dewey_comparisons += o.dewey_comparisons;
    lca_ops += o.lca_ops;
    postings_read += o.postings_read;
    page_reads += o.page_reads;
    page_hits += o.page_hits;
    io_errors += o.io_errors;
    results += o.results;
    return *this;
  }

  std::string ToString() const;
};

/// Every QueryStats counter, in declaration order (also the order the
/// result cache encodes them in).
inline constexpr std::array<uint64_t QueryStats::*, 8> kQueryStatsFields = {
    &QueryStats::match_ops,     &QueryStats::dewey_comparisons,
    &QueryStats::lca_ops,       &QueryStats::postings_read,
    &QueryStats::page_reads,    &QueryStats::page_hits,
    &QueryStats::io_errors,     &QueryStats::results};

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_STATS_H_
