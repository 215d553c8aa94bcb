#ifndef XKSEARCH_SERVE_METRICS_H_
#define XKSEARCH_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "serve/query_cache.h"

namespace xksearch {
namespace serve {

/// \brief Lock-free log-bucketed latency histogram.
///
/// Bucket i counts samples in [2^(i-1), 2^i) nanoseconds, which gives
/// < 100% relative error over the full ns..minutes range in 64 fixed
/// buckets — standard practice for serving-side latency (exact per-sample
/// storage cannot be shared across threads cheaply). Recording is one
/// relaxed fetch_add; quantiles interpolate linearly inside the bucket.
/// The same relaxed-memory-order argument as RelaxedCounter applies:
/// histograms are tallies read at reporting time, not synchronization.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t nanos);

  /// Point-in-time copy of the buckets, with derived statistics.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_nanos = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Approximate quantile (p in [0,1]) in nanoseconds; 0 when empty.
    uint64_t PercentileNanos(double p) const;
    double MeanNanos() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_nanos) /
                              static_cast<double>(count);
    }
  };
  Snapshot TakeSnapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

/// \brief All counters the serving layer exports, incremented concurrently
/// by submitters and workers (hence RelaxedCounter throughout).
class MetricsRegistry {
 public:
  /// One per accepted Submit call (including ones later rejected by the
  /// deadline check; excludes queue-full rejections).
  RelaxedCounter requests;
  /// Successful responses, from cache or engine.
  RelaxedCounter completed;
  /// Responses served straight from the result cache.
  RelaxedCounter cache_hits;
  /// Admission-control rejections (bounded queue full or stopped pool).
  RelaxedCounter rejected;
  /// Requests whose deadline passed while queued.
  RelaxedCounter deadline_exceeded;
  /// Engine-reported errors.
  RelaxedCounter failed;
  /// Subset of `failed` caused by storage I/O errors (kIoError status):
  /// the signal an operator watches for failing disks under the index.
  RelaxedCounter io_errors;
  /// Requests resolved by attaching to an identical in-flight execution
  /// (single-flight coalescing) instead of executing a duplicate.
  RelaxedCounter coalesced_queries;

  /// End-to-end latency of completed requests (both hit and miss paths).
  LatencyHistogram request_latency;
  /// Submit-to-worker-pickup time of dispatched requests (queueing delay).
  LatencyHistogram queue_latency;

  /// Engine operation counters aggregated over finished queries.
  QueryStats engine_stats;

  /// Point-in-time totals of one disk-index buffer pool (the counters
  /// are the pool's relaxed atomics, sampled at report time).
  struct PoolGauges {
    bool present = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Fetches refused because every frame of a shard stayed pinned.
    uint64_t exhausted = 0;
    size_t resident = 0;
    size_t capacity = 0;
    double HitRatio() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  /// Point-in-time view of one shard of a sharded backend: cumulative
  /// query counters plus that shard's own buffer pool. An operator reads
  /// these to spot skew (one hot shard), confirm pruning is working
  /// (pruned counts rising on keyword-sparse shards) and localize disk
  /// trouble (io_errors pinned to one shard = one failing volume).
  struct ShardGauges {
    uint32_t shard = 0;
    size_t documents = 0;
    uint64_t executed = 0;
    uint64_t pruned = 0;
    uint64_t io_errors = 0;
    uint64_t results = 0;
    PoolGauges scan_pool;
  };

  /// Write-ahead-log activity, sampled from the process-wide WalCounters
  /// at report time. `recoveries` > 0 means some open replayed a batch a
  /// crashed updater left behind — expected after a crash, a red flag if
  /// it keeps climbing on a machine that is not crashing.
  struct WalGauges {
    uint64_t recoveries = 0;
    uint64_t batches_replayed = 0;
    uint64_t bytes_replayed = 0;
    uint64_t commits = 0;
    uint64_t wal_bytes = 0;  // bytes committed through the log
  };

  /// Instantaneous values sampled by the caller at report time.
  struct Gauges {
    size_t queue_depth = 0;
    size_t workers = 0;
    QueryCache::Stats cache;
    WalGauges wal;
    /// The disk index's buffer pool; present=false when the served engine
    /// has no disk index.
    PoolGauges scan_pool;
    /// One entry per shard when serving a sharded collection; empty for
    /// single-index backends.
    std::vector<ShardGauges> shards;
  };

  /// Renders the whole registry as a human-readable text report.
  std::string ReportText(const Gauges& gauges) const;
};

}  // namespace serve
}  // namespace xksearch

#endif  // XKSEARCH_SERVE_METRICS_H_
