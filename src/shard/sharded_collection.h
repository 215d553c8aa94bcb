#ifndef XKSEARCH_SHARD_SHARDED_COLLECTION_H_
#define XKSEARCH_SHARD_SHARDED_COLLECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "shard/router.h"
#include "storage/pager.h"

namespace xksearch {
namespace shard {

/// Size-balanced partitioner (LPT greedy): documents, heaviest first,
/// each go to the currently lightest shard. Returns one shard index per
/// weight, deterministic for a given input. Exposed for tests and for
/// offline shard planning.
std::vector<uint32_t> BalancedPartition(const std::vector<uint64_t>& weights,
                                        size_t shards);

/// \brief Configuration of a sharded collection, fixed at build time.
struct ShardedCollectionOptions {
  /// Number of shards (>= 1). Shards left without documents stay empty
  /// and are pruned from every query.
  size_t shards = 1;
  /// Per-shard index build options.
  XKSearch::BuildOptions build;
  /// When set, each shard also writes its own disk index with these
  /// options (DiskSearcher::Build) and answers every query from it. A
  /// file-backed `disk_path_prefix` `p` becomes `p.s<k>` for shard k.
  std::optional<DiskIndexOptions> disk;
  std::string disk_path_prefix;
  /// Test hook mirroring DiskIndexOptions::store_decorator with the
  /// shard index added, so fault-injection tests can target one shard's
  /// stores. Overrides any decorator in `disk`.
  std::function<std::unique_ptr<PageStore>(std::unique_ptr<PageStore>,
                                           size_t shard,
                                           std::string_view name)>
      store_decorator;
  RouterOptions router;
};

/// \brief One shard's contribution to a query, reported per response.
struct ShardQueryStats {
  uint32_t shard = 0;
  /// Skipped by the router (some keyword absent from the shard) or empty.
  bool pruned = false;
  /// SLCAs this shard contributed.
  uint64_t results = 0;
  /// The shard query's operation counters; zero when pruned. The
  /// response-level totals are exactly the field-wise sum over shards.
  QueryStats stats;
};

/// \brief Result of one sharded search.
struct ShardedResult {
  /// Merged answer. `result.nodes` are collection Dewey numbers: the
  /// collection behaves as one virtual tree whose root's children are
  /// the documents in insertion order, so an answer rooted at local id
  /// 0.p1.p2 of document d is reported as 0.d.p1.p2 — document-major
  /// order, exactly the order the per-shard streams merge in.
  /// `result.stats` is the field-wise sum of the per-shard stats.
  SearchResult result;
  /// One entry per shard (pruned shards included), indexed by shard id.
  std::vector<ShardQueryStats> shards;

  /// Shards that actually executed (not pruned).
  size_t executed_shards() const;
  /// Shards the router (or emptiness) pruned.
  size_t pruned_shards() const;
};

/// \brief Cumulative per-shard counters, sampled for serving gauges.
struct ShardCountersSnapshot {
  uint64_t executed = 0;
  uint64_t pruned = 0;
  uint64_t io_errors = 0;
  uint64_t results = 0;
};

/// \brief A multi-document collection partitioned into independent
/// shards, each owning its own XKSearch engine and, when built with a
/// disk index, the DiskSearcher that answers its queries.
///
/// Correctness hook (the reason sharding is safe): SLCA/ELCA/All-LCA
/// answers never cross a document root — any answer's subtree lies
/// entirely inside one document — so partitioning documents across
/// shards and unioning the per-shard answer sets is exact. No re-LCA
/// pass is needed at gather time; the per-shard streams are simply
/// merged in document order.
///
/// Internally each shard splices its documents under a synthetic root
/// element (tagged "_", which tokenizes to nothing and is therefore
/// never indexed), giving the shard one Dewey space and one engine;
/// shard-local answers rooted at the synthetic root are discarded (they
/// would correspond to cross-document ancestors, which have no meaning
/// in a collection), and the remaining answers are re-based from
/// shard-local to collection coordinates.
///
/// Thread safety: immutable after Build; Search and the building blocks
/// below are safe from any number of threads (per-query state is local,
/// cumulative counters are relaxed atomics), which is what lets the
/// ScatterGatherExecutor fan one query's shards out across a pool.
class ShardedCollection {
 public:
  /// \brief Accumulates documents, then partitions and builds.
  class Builder {
   public:
    explicit Builder(ShardedCollectionOptions options)
        : options_(std::move(options)) {}

    /// Adds a document under `name` (must be unique).
    Status Add(std::string name, Document doc);
    /// Parses and adds an XML string.
    Status AddXml(std::string name, std::string_view xml);

    /// Partitions the documents (size-balanced by node count), builds
    /// one engine per non-empty shard and the router filters.
    Result<std::unique_ptr<ShardedCollection>> Build() &&;

   private:
    ShardedCollectionOptions options_;
    std::vector<std::string> names_;
    std::vector<Document> docs_;
  };

  ShardedCollection(const ShardedCollection&) = delete;
  ShardedCollection& operator=(const ShardedCollection&) = delete;

  /// \brief A routed query: which shards to run, plus the pre-filled
  /// per-shard stats skeleton (pruned flags set).
  struct Plan {
    /// Normalized query keywords (input order, duplicates kept).
    std::vector<std::string> normalized;
    /// Shards to execute, ascending.
    std::vector<uint32_t> candidates;
    /// One entry per shard; pruned already set for non-candidates.
    std::vector<ShardQueryStats> shards;
  };

  /// Normalizes the query and routes it: a shard is a candidate iff every
  /// keyword passes its Bloom filter AND its exact frequency table (so
  /// the candidate set is deterministic — Bloom false positives are
  /// re-checked against the dictionary). Mirrors the engine's
  /// InvalidArgument contract for empty/unindexable queries.
  Result<Plan> PlanQuery(const std::vector<std::string>& keywords) const;

  /// Runs one shard's query and re-bases the answers to collection
  /// coordinates. `shard` must be a candidate (have an engine).
  Result<SearchResult> SearchShard(uint32_t shard,
                                   const std::vector<std::string>& keywords,
                                   const SearchOptions& options,
                                   const ParallelExecOptions& exec = {}) const;

  /// Gathers per-candidate outcomes (same order as plan.candidates) into
  /// the merged response: any shard error fails the whole query (the
  /// first candidate's error wins, deterministically); otherwise the
  /// sorted per-shard streams merge and the per-shard stats sum into the
  /// response totals. Also bumps the cumulative per-shard counters.
  Result<ShardedResult> Gather(
      Plan plan, std::vector<Result<SearchResult>> outcomes) const;

  /// Sequential scatter-gather on the calling thread: PlanQuery, each
  /// candidate in turn, Gather. The ScatterGatherExecutor is the
  /// pool-parallel equivalent with identical results.
  Result<ShardedResult> Search(const std::vector<std::string>& keywords,
                               const SearchOptions& options = {},
                               const ParallelExecOptions& exec = {}) const;

  /// Maps a collection Dewey number back to (document name, local id).
  struct Resolved {
    std::string_view document;
    DeweyId local;
  };
  Result<Resolved> Resolve(const DeweyId& collection_id) const;

  /// Total keyword frequency across all shards.
  uint64_t Frequency(std::string_view keyword) const;

  size_t shard_count() const { return shards_.size(); }
  size_t document_count() const { return doc_names_.size(); }
  /// The in-memory engine of shard `s` (its index also routes queries);
  /// nullptr when the shard holds no documents.
  const XKSearch* shard_engine(uint32_t s) const {
    return shards_[s].engine.get();
  }
  /// The disk engine that answers shard `s`'s queries; nullptr when the
  /// collection was built without a disk index or the shard is empty.
  const DiskSearcher* shard_disk(uint32_t s) const {
    return shards_[s].disk.get();
  }
  /// Global ids of the documents in shard `s`, ascending.
  const std::vector<uint32_t>& shard_documents(uint32_t s) const {
    return shards_[s].docs;
  }
  const std::string& document_name(uint32_t doc) const {
    return doc_names_[doc];
  }
  const IndexOptions& index_options() const { return index_options_; }
  const ShardRouter& router() const { return router_; }

  /// Point-in-time copy of the cumulative per-shard counters.
  std::vector<ShardCountersSnapshot> CountersSnapshot() const;

 private:
  struct Shard {
    std::vector<uint32_t> docs;  // global ids, ascending
    std::unique_ptr<XKSearch> engine;
    std::unique_ptr<DiskSearcher> disk;
  };
  struct Counters {
    RelaxedCounter executed;
    RelaxedCounter pruned;
    RelaxedCounter io_errors;
    RelaxedCounter results;
  };

  ShardedCollection() = default;

  std::vector<Shard> shards_;
  std::vector<std::string> doc_names_;
  /// doc id -> (shard, position among the shard's docs).
  std::vector<std::pair<uint32_t, uint32_t>> doc_location_;
  IndexOptions index_options_;
  ShardRouter router_;
  mutable std::vector<Counters> counters_;
};

}  // namespace shard
}  // namespace xksearch

#endif  // XKSEARCH_SHARD_SHARDED_COLLECTION_H_
