#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

namespace xksearch {
namespace serve {

void LatencyHistogram::Record(uint64_t nanos) {
  const size_t bucket = static_cast<size_t>(std::bit_width(nanos));
  buckets_[bucket >= kBuckets ? kBuckets - 1 : bucket].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_nanos = sum_nanos_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

uint64_t LatencyHistogram::Snapshot::PercentileNanos(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the target sample, 1-based.
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(p * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= target) {
      // Linear interpolation inside [2^(i-1), 2^i).
      const uint64_t lo = i == 0 ? 0 : uint64_t{1} << (i - 1);
      const uint64_t hi = i == 0 ? 1 : uint64_t{1} << i;
      const double frac = static_cast<double>(target - seen) /
                          static_cast<double>(buckets[i]);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
    seen += buckets[i];
  }
  return uint64_t{1} << (kBuckets - 1);
}

std::string MetricsRegistry::ReportText(const Gauges& gauges) const {
  const LatencyHistogram::Snapshot latency = request_latency.TakeSnapshot();
  const LatencyHistogram::Snapshot queueing = queue_latency.TakeSnapshot();
  std::ostringstream os;
  os << "== xkserve metrics ==\n";
  os << "requests:          " << static_cast<uint64_t>(requests) << "\n";
  os << "  completed:       " << static_cast<uint64_t>(completed) << "\n";
  os << "  cache_hits:      " << static_cast<uint64_t>(cache_hits) << "\n";
  os << "  rejected:        " << static_cast<uint64_t>(rejected) << "\n";
  os << "  deadline_exceeded: " << static_cast<uint64_t>(deadline_exceeded)
     << "\n";
  os << "  failed:          " << static_cast<uint64_t>(failed) << "\n";
  os << "  io_errors:       " << static_cast<uint64_t>(io_errors) << "\n";
  os << "  coalesced:       " << static_cast<uint64_t>(coalesced_queries)
     << "\n";
  os << std::fixed << std::setprecision(1);
  os << "latency_us:        mean=" << latency.MeanNanos() / 1e3
     << " p50=" << static_cast<double>(latency.PercentileNanos(0.50)) / 1e3
     << " p95=" << static_cast<double>(latency.PercentileNanos(0.95)) / 1e3
     << " p99=" << static_cast<double>(latency.PercentileNanos(0.99)) / 1e3
     << "\n";
  os << "queue_wait_us:     mean=" << queueing.MeanNanos() / 1e3
     << " p50=" << static_cast<double>(queueing.PercentileNanos(0.50)) / 1e3
     << " p99=" << static_cast<double>(queueing.PercentileNanos(0.99)) / 1e3
     << "\n";
  os << "queue_depth:       " << gauges.queue_depth << " (workers="
     << gauges.workers << ")\n";
  os << std::setprecision(3);
  os << "cache:             entries=" << gauges.cache.entries
     << " bytes=" << gauges.cache.bytes << " hits=" << gauges.cache.hits
     << " misses=" << gauges.cache.misses
     << " evictions=" << gauges.cache.evictions
     << " admission_rejects=" << gauges.cache.admission_rejects
     << " hit_ratio=" << gauges.cache.HitRatio() << "\n";
  if (const PoolGauges& pool = gauges.scan_pool; pool.present) {
    os << "scan_pool:          hits=" << pool.hits
       << " misses=" << pool.misses << " exhausted=" << pool.exhausted
       << " resident=" << pool.resident << "/" << pool.capacity
       << " hit_ratio=" << pool.HitRatio() << "\n";
  }
  os << "wal:               recoveries=" << gauges.wal.recoveries
     << " batches_replayed=" << gauges.wal.batches_replayed
     << " bytes_replayed=" << gauges.wal.bytes_replayed
     << " commits=" << gauges.wal.commits
     << " wal_bytes=" << gauges.wal.wal_bytes << "\n";
  for (const ShardGauges& shard : gauges.shards) {
    os << "shard[" << shard.shard << "]:          docs=" << shard.documents
       << " executed=" << shard.executed << " pruned=" << shard.pruned
       << " io_errors=" << shard.io_errors << " results=" << shard.results;
    if (shard.scan_pool.present) {
      os << " scan=" << shard.scan_pool.hits << "h/"
         << shard.scan_pool.misses << "m";
    }
    os << "\n";
  }
  os << "engine:            " << engine_stats.ToString() << "\n";
  return os.str();
}

}  // namespace serve
}  // namespace xksearch
