#ifndef XKSEARCH_SERVE_QUERY_CACHE_H_
#define XKSEARCH_SERVE_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "engine/search_types.h"

namespace xksearch {
namespace serve {

/// \brief Identity of a cacheable query as one canonical byte string:
/// every semantic SearchOptions field, then the keywords, each followed
/// by a NUL.
///
/// Callers (QueryService) canonicalize the keywords — tokenizer
/// normalization, sort, dedup — before building the key, so
/// "XML, Database" and "database xml" share one entry. The key itself
/// encodes the vector verbatim. Keywords must not contain NUL
/// (normalized keywords never do).
class QueryCacheKey {
 public:
  QueryCacheKey() = default;
  QueryCacheKey(const std::vector<std::string>& keywords,
                const SearchOptions& options);

  /// The keywords, in the order the key was built from.
  std::vector<std::string> keywords() const;

  std::string_view bytes() const { return bytes_; }

  friend bool operator==(const QueryCacheKey&, const QueryCacheKey&) = default;

 private:
  std::string bytes_;
};

struct QueryCacheKeyHash {
  size_t operator()(std::string_view bytes) const {
    return std::hash<std::string_view>()(bytes);
  }
  size_t operator()(const QueryCacheKey& key) const {
    return (*this)(key.bytes());
  }
};

/// \brief Sharded LRU cache of complete query results with a byte budget.
///
/// The paper's hot-cache experiments (Figures 8-10) show index lookup
/// cost dominating SLCA computation; a result cache removes both for
/// repeated queries, which real keyword workloads (Zipf-shaped) produce
/// constantly. Sharding bounds lock contention: a key hashes to one shard
/// and only that shard's mutex is taken. Each shard owns an equal slice
/// of the byte budget and evicts from its own LRU tail, so one hot shard
/// cannot starve the others.
///
/// Invalidation: the engines are immutable after build, so entries never
/// go stale today; Clear() is the hook index updates will call (see
/// DESIGN.md "Serving layer").
class QueryCache {
 public:
  struct Options {
    /// Number of independent shards; rounded up to a power of two.
    size_t shards = 8;
    /// Total budget across all shards; entries above a shard's slice are
    /// never admitted.
    size_t capacity_bytes = 8u << 20;
  };

  /// Counter snapshot. hits/misses/insertions/evictions are cumulative;
  /// entries/bytes are current occupancy.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t oversize_rejects = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;

    double HitRatio() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  explicit QueryCache(const Options& options);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Copies the entry's encoded result into `*encoded` and refreshes its
  /// recency; false on miss. Only the copy runs under the shard mutex:
  /// Decode runs after every lock is released.
  bool Lookup(const QueryCacheKey& key, std::string* encoded);

  /// Decodes a result copied out by Lookup.
  static Status Decode(std::string_view encoded, SearchResult* out);

  /// Lookup plus Decode: the cached result, or nullopt on miss.
  std::optional<SearchResult> Lookup(const QueryCacheKey& key);

  /// Inserts (or replaces) the entry, then evicts from the shard's LRU
  /// tail until the shard is back under budget. Entries larger than one
  /// shard's whole budget or 4 GiB are rejected, as are results with an
  /// id deeper than DecodeBlock accepts. Encodes the result once, straight into the
  /// entry's exactly-sized buffer.
  void Insert(const QueryCacheKey& key, const SearchResult& result);

  /// Drops every entry (the invalidation hook for future index updates).
  void Clear();

  Stats GetStats() const;

  /// Length of the entry's byte string: the key, then the encoded result.
  static size_t EncodedBytes(const QueryCacheKey& key,
                             const SearchResult& result);

  /// What the entry is charged against the byte budget: the heap blocks
  /// of its byte string, LRU list node and map node as malloc sizes them,
  /// plus its share of the map's bucket array.
  static size_t ApproxEntryBytes(const QueryCacheKey& key,
                                 const SearchResult& result);

 private:
  /// One cached answer: the key bytes, then the result — algorithm,
  /// stats and keywords as varints, then the nodes in the delta format
  /// of the posting blocks (see query_cache.cc).
  struct Entry {
    std::unique_ptr<char[]> data;
    uint32_t key_bytes = 0;
    uint32_t size = 0;

    std::string_view key() const { return {data.get(), key_bytes}; }
    std::string_view result() const {
      return {data.get() + key_bytes, size - key_bytes};
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // Keys view into their entry's bytes; list nodes never move.
    std::unordered_map<std::string_view, std::list<Entry>::iterator,
                       QueryCacheKeyHash>
        map;
    size_t bytes = 0;
  };

  static size_t EntryCharge(size_t encoded_bytes);

  Shard& ShardFor(const QueryCacheKey& key);

  size_t shard_mask_;
  size_t shard_budget_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RelaxedCounter hits_;
  RelaxedCounter misses_;
  RelaxedCounter insertions_;
  RelaxedCounter evictions_;
  RelaxedCounter oversize_rejects_;
};

}  // namespace serve
}  // namespace xksearch

#endif  // XKSEARCH_SERVE_QUERY_CACHE_H_
