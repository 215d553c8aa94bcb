#ifndef XKSEARCH_COMMON_STATS_H_
#define XKSEARCH_COMMON_STATS_H_

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
/// Copy/assignment take a relaxed snapshot, which keeps QueryStats a
/// regular value type (results are returned by value per query); copying
/// a counter that is concurrently incremented yields some valid recent
/// value, never a torn one.
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
/// comparisons, and disk accesses. Per-query instances reset per query;
/// the serving layer additionally aggregates finished queries' stats into
/// one shared instance, which is why the fields are atomic counters
/// (concurrent workers sharing an engine must not race on them).
struct QueryStats {
  /// Left/right match operations (lm/rm calls), the paper's "# operations".
  RelaxedCounter match_ops = 0;
  /// Dewey number comparisons performed by match ops and merges.
  RelaxedCounter dewey_comparisons = 0;
  /// LCA (longest-common-prefix) computations.
  RelaxedCounter lca_ops = 0;
  /// Nodes read from keyword lists (postings touched).
  RelaxedCounter postings_read = 0;
  /// Buffer-pool misses, i.e. the paper's "number of disk accesses".
  RelaxedCounter page_reads = 0;
  /// Buffer-pool hits (satisfied from cache).
  RelaxedCounter page_hits = 0;
  /// Storage read failures observed on this query's behalf: fetches that
  /// surfaced an error status. Per-shard totals sum into sharded response
  /// totals like every other counter.
  RelaxedCounter io_errors = 0;
  /// SLCA/LCA results produced.
  RelaxedCounter results = 0;

  void Reset() { *this = QueryStats(); }

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

/// \brief Scoped accumulator for Dewey comparison counts.
///
/// The tight comparison loops (binary searches, k-way merges) charge each
/// component comparison through a `uint64_t*` passed to DeweyId::Compare.
/// Pointing that at the atomic QueryStats field directly is impossible
/// (and would put an atomic RMW in the innermost loop), so call sites
/// accumulate into this local and the total is charged to
/// `stats->dewey_comparisons` once, on scope exit.
class DeweyCmpCharge {
 public:
  explicit DeweyCmpCharge(QueryStats* stats) : stats_(stats) {}
  ~DeweyCmpCharge() {
    if (stats_ != nullptr && count_ != 0) stats_->dewey_comparisons += count_;
  }
  DeweyCmpCharge(const DeweyCmpCharge&) = delete;
  DeweyCmpCharge& operator=(const DeweyCmpCharge&) = delete;

  /// The slot to hand to DeweyId::Compare; null when stats are disabled.
  uint64_t* slot() { return stats_ != nullptr ? &count_ : nullptr; }

 private:
  QueryStats* stats_;
  uint64_t count_ = 0;
};

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_STATS_H_
