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
#include <utility>
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

/// \brief Sharded cache of complete query results with a byte budget:
/// TinyLFU admission in front of LRU eviction.
///
/// The paper's hot-cache experiments (Figures 8-10) show index lookup
/// cost dominating SLCA computation; a result cache removes both for
/// repeated queries, which real keyword workloads (Zipf-shaped) produce
/// constantly. Sharding bounds lock contention: a key hashes to one shard
/// and only that shard's mutex is taken. Each shard owns an equal slice
/// of the byte budget and evicts from its own LRU tail, so one hot shard
/// cannot starve the others.
///
/// Admission (TinyLFU; Einziger, Friedman and Manes, ACM TOS 2017): each
/// shard counts its lookups, hits and misses alike, in a count-min
/// sketch whose counters are halved periodically, so the counts follow
/// recent popularity. A new key enters a shard that has room. Into a
/// full shard it enters only if the sketch counts it strictly more
/// often than every LRU-tail entry that would be evicted to make room;
/// otherwise it is dropped, and one-hit queries cannot flush popular
/// answers. The sketch's bytes are charged against the budget.
///
/// Invalidation: the engines are immutable after build, so entries never
/// go stale today; Clear() is the hook index updates will call (see
/// DESIGN.md "Serving layer").
class QueryCache {
 public:
  struct Options {
    /// Number of independent shards; rounded up to a power of two.
    size_t shards = 8;
    /// Total budget across all shards, the sketches included; entries
    /// above a shard's slice are never admitted.
    size_t capacity_bytes = 8u << 20;
  };

  /// Counter snapshot. hits/misses/insertions/evictions and the rejects
  /// are cumulative; entries/bytes are current occupancy, and
  /// sketch_bytes is the fixed charge of the shards' sketches.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Inserts refused because the entry can never fit a shard.
    uint64_t oversize_rejects = 0;
    /// Inserts refused because a full shard's sketch counted a victim
    /// at least as often as the new key.
    uint64_t admission_rejects = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t sketch_bytes = 0;

    double HitRatio() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  explicit QueryCache(const Options& options);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Counts the lookup in the shard's sketch, then copies the entry's
  /// encoded result into `*encoded` and refreshes its recency; false on
  /// miss. Only the copy runs under the shard mutex: Decode runs after
  /// every lock is released.
  bool Lookup(const QueryCacheKey& key, std::string* encoded);

  /// Decodes a result copied out by Lookup.
  static Status Decode(std::string_view encoded, SearchResult* out);

  /// Lookup plus Decode: the cached result, or nullopt on miss.
  std::optional<SearchResult> Lookup(const QueryCacheKey& key);

  /// Inserts (or replaces) the entry, evicting from the shard's LRU tail
  /// to make room. A new key that does not fit is admitted only past
  /// victims it outcounts (see the class comment); a replacement is
  /// always admitted. Entries larger than one shard's whole budget or
  /// 4 GiB are rejected, as are results with an id deeper than
  /// DecodeBlock accepts. Encodes the result once, straight into the
  /// entry's exactly-sized buffer. Does not count in the sketch: the
  /// Lookup that missed already did.
  void Insert(const QueryCacheKey& key, const SearchResult& result);

  /// Drops every entry (the invalidation hook for future index updates).
  /// The sketches keep their counts: an index update does not change
  /// which queries are popular.
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
  /// Count-min sketch of one shard's lookups: four rows of saturating
  /// 4-bit counters, sixteen to a word. Stores counts, no keys. When the
  /// addition count reaches the sample size, every counter and the
  /// addition count itself are halved (TinyLFU's reset).
  class FrequencySketch {
   public:
    /// `width` counters per row: a power of two of at least 16, or 0 for
    /// a sketch that counts nothing.
    FrequencySketch(size_t width, uint64_t sample_size);

    void Add(size_t hash);
    /// The smallest of the key's four counters: never below its true
    /// (halved) count while that stays under 15.
    uint32_t Estimate(size_t hash) const;

   private:
    /// Word and bit offset of the key's counter in `row`.
    std::pair<size_t, int> Slot(size_t hash, int row) const;

    std::vector<uint64_t> table_;
    size_t words_per_row_ = 0;
    int index_shift_ = 0;
    uint64_t sample_size_ = 0;
    uint64_t additions_ = 0;
  };

  struct Shard {
    Shard(size_t sketch_width, uint64_t sample_size)
        : sketch(sketch_width, sample_size) {}

    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // Keys view into their entry's bytes; list nodes never move.
    std::unordered_map<std::string_view, std::list<Entry>::iterator,
                       QueryCacheKeyHash>
        map;
    size_t bytes = 0;
    FrequencySketch sketch;
  };

  static size_t EntryCharge(size_t encoded_bytes);

  Shard& ShardFor(size_t hash);

  /// Whether a new key of `hash` and `charge` bytes enters `shard`.
  bool Admit(const Shard& shard, size_t hash, size_t charge) const;

  size_t shard_mask_;
  /// A shard's slice of the budget left to entries after its sketch.
  size_t shard_budget_bytes_;
  size_t sketch_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RelaxedCounter hits_;
  RelaxedCounter misses_;
  RelaxedCounter insertions_;
  RelaxedCounter evictions_;
  RelaxedCounter oversize_rejects_;
  RelaxedCounter admission_rejects_;
};

}  // namespace serve
}  // namespace xksearch

#endif  // XKSEARCH_SERVE_QUERY_CACHE_H_
