#ifndef XKSEARCH_SERVE_QUERY_SERVICE_H_
#define XKSEARCH_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"
#include "serve/thread_pool.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_collection.h"

namespace xksearch {
namespace serve {

struct QueryServiceOptions {
  ThreadPool::Options pool;
  QueryCache::Options cache;
  /// Disable to measure the raw engine (every request dispatches).
  bool enable_cache = true;
  /// Ignored: every in-memory query probes the packed posting arenas in
  /// place and the service keeps no decoded lists. Kept only so callers
  /// that still set it compile; to be removed with them.
  size_t hot_list_bytes = 0;
  /// Single-flight coalescing: a request whose canonical cache key
  /// matches an identical query already executing attaches to that
  /// execution instead of dispatching a duplicate, and the finished
  /// result is published to the cache and to every attached request
  /// atomically — closing the thundering-herd window where N identical
  /// cold queries all miss the cache and all execute. Pure execution
  /// config (followers receive the exact result the leader computed), so
  /// like shard_exec it never enters the cache key. Works with the
  /// result cache disabled; coalesced responses then simply bypass it.
  bool single_flight = true;
  /// Deadline applied to requests submitted without an explicit timeout;
  /// zero means no deadline.
  std::chrono::milliseconds default_timeout{0};
  /// Load-generator aid: sleep this long in the worker before running
  /// each cache-miss query, emulating a slower storage tier (cold-cache
  /// disk stalls) without needing one. Zero (the default) measures the
  /// real engine only; keep it zero outside load tests.
  std::chrono::microseconds synthetic_backend_latency{0};
  /// Shard fan-out configuration, used only by the sharded-collection
  /// backend. Deliberately NOT part of SearchOptions (and therefore not
  /// part of the cache key): execution placement never changes the
  /// answer, so cached results stay valid across executor configs.
  shard::ScatterGatherOptions shard_exec;
  /// Intra-query chunked-SLCA execution for cache-miss queries (every
  /// backend: engine, disk searcher, and each shard of a collection).
  /// Like shard_exec, deliberately NOT part of the cache key.
  struct SlcaChunkOptions {
    /// Workers of the dedicated chunk pool; 0 disables chunking. The
    /// pool is separate from the request pool on purpose: request
    /// workers block waiting for their chunk tasks, so sharing one pool
    /// could deadlock with every worker waiting and every chunk queued.
    size_t workers = 0;
    /// Chunks per query; 0 means workers + 1 (the coordinator runs one).
    size_t max_chunks = 0;
    /// Minimum S1 elements per chunk (ParallelExecOptions).
    uint64_t min_chunk_elements = 1024;
    /// Token budget shared by ALL queries' extra chunk workers, capping
    /// total intra-query concurrency even when the shard scatter and the
    /// request pool fan out on top; 0 means `workers` tokens.
    size_t max_extra_workers = 0;
  };
  SlcaChunkOptions slca_chunk;
};

/// \brief One served query's payload.
struct QueryResponse {
  SearchResult result;
  /// True when the response came from the result cache.
  bool cache_hit = false;
  /// True when the response came from attaching to an identical
  /// in-flight execution (single-flight); this request ran no engine
  /// work of its own.
  bool coalesced = false;
  /// End-to-end submit-to-completion time.
  std::chrono::nanoseconds latency{0};
};

/// \brief The servable face of the engine: bounded-queue thread-pooled
/// execution, a sharded result cache consulted before dispatch, deadlines,
/// and a metrics registry.
///
/// Turns the single-caller XKSearch/DiskSearcher library into something a
/// front end can push concurrent traffic at. Requests are admitted
/// (kUnavailable when the queue is full — callers shed or retry), checked
/// against the cache (hot queries complete on the submitting thread
/// without touching the pool), and otherwise executed by the worker pool
/// against the underlying engine, whose in-memory read path is lock-free
/// for concurrent const callers.
class QueryService {
 public:
  /// Serves from an in-memory engine. `engine` is not owned and must
  /// outlive the service.
  QueryService(const XKSearch* engine, const QueryServiceOptions& options);
  /// Serves from a persisted index without the source document.
  QueryService(const DiskSearcher* searcher,
               const QueryServiceOptions& options);
  /// Serves from a sharded collection: cache misses scatter across the
  /// collection's candidate shards on a dedicated executor pool and the
  /// response carries the merged result (per-shard stats summed into
  /// `result.stats`). `collection` is not owned and must outlive the
  /// service.
  QueryService(const shard::ShardedCollection* collection,
               const QueryServiceOptions& options);
  /// Drains outstanding requests, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Asynchronous submission. The returned future resolves to the
  /// response, or to kUnavailable (queue full / shut down),
  /// kDeadlineExceeded (deadline passed while queued), or the engine's
  /// error. Rejections and cache hits resolve immediately.
  std::future<Result<QueryResponse>> Submit(
      const std::vector<std::string>& keywords,
      const SearchOptions& options = {});

  /// Submit with a per-request deadline overriding default_timeout.
  std::future<Result<QueryResponse>> SubmitWithTimeout(
      const std::vector<std::string>& keywords, const SearchOptions& options,
      std::chrono::milliseconds timeout);

  /// Synchronous convenience wrapper: Submit + wait.
  Result<QueryResponse> Search(const std::vector<std::string>& keywords,
                               const SearchOptions& options = {});

  /// Runs queued requests to completion, stops the workers, and rejects
  /// all later submissions. Idempotent.
  void Shutdown();

  /// Canonical cache key for a query: tokenizer-normalized, sorted,
  /// deduplicated keywords (none of which changes the answer) + options.
  QueryCacheKey MakeCacheKey(const std::vector<std::string>& keywords,
                             const SearchOptions& options) const;

  /// Drops all cached results (hook for index mutation).
  void InvalidateCache() { cache_.Clear(); }

  const MetricsRegistry& metrics() const { return metrics_; }
  QueryCache::Stats cache_stats() const { return cache_.GetStats(); }
  /// Always zero, like `hot_list_bytes`: kept only for callers that
  /// still read it, to be removed with them.
  struct HotListStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  HotListStats hot_list_stats() const { return {}; }
  size_t queue_depth() const { return pool_.queue_depth(); }

  /// Text report of every counter, histogram and gauge.
  std::string MetricsReport() const;

 private:
  using Clock = std::chrono::steady_clock;
  using ResponsePromise = std::promise<Result<QueryResponse>>;

  /// One in-flight execution under single-flight: later identical
  /// requests attach here as followers and are answered from the
  /// leader's result. Lives in flights_ from leader admission until the
  /// leader's completion retires it (atomically with the cache insert).
  struct Flight {
    struct Follower {
      std::shared_ptr<ResponsePromise> promise;
      Clock::time_point submitted;
    };
    std::vector<Follower> followers;
  };

  /// Everything one dispatched (leader) request carries to the worker.
  struct Job {
    std::vector<std::string> keywords;
    SearchOptions options;
    QueryCacheKey key;
    /// True when flights_ holds an entry for `key` this job must retire.
    bool in_flight = false;
    std::shared_ptr<ResponsePromise> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;
  };

  QueryService(const XKSearch* engine, const DiskSearcher* searcher,
               const shard::ShardedCollection* collection,
               const QueryServiceOptions& options);

  Result<SearchResult> RunQuery(const std::vector<std::string>& keywords,
                                const SearchOptions& options) const;

  /// Worker body of a dispatched request: deadline check, engine run,
  /// atomic cache-insert + flight-retire, responses to leader and every
  /// follower.
  void ExecuteJob(const std::shared_ptr<Job>& job);

  /// Fails every follower of job's flight (and the leader) with
  /// `status`; used when admission fails after the flight registered.
  void AbortFlight(const std::shared_ptr<Job>& job, const Status& status);

  // Exactly one of engine_/searcher_/collection_ is set.
  const XKSearch* engine_;
  const DiskSearcher* searcher_;
  const shard::ShardedCollection* collection_;
  /// The backend's tokenizer, which cache keys normalize with.
  TokenizerOptions tokenizer_;
  std::unique_ptr<shard::ScatterGatherExecutor> shard_exec_;
  QueryServiceOptions options_;
  MetricsRegistry metrics_;
  QueryCache cache_;
  std::atomic<bool> stopped_{false};
  /// Guards flights_ AND serializes result-cache publication with
  /// lookup+attach: a completing leader inserts into cache_ and retires
  /// its flight under this mutex, and a submitter looks up the cache and
  /// attaches to (or registers) a flight under it too — so a request
  /// either sees the cached result or the flight that will produce it,
  /// never the gap in between.
  std::mutex flight_mu_;
  std::unordered_map<QueryCacheKey, std::shared_ptr<Flight>,
                     QueryCacheKeyHash>
      flights_;
  // Declared before pool_ so they are destroyed after it: request
  // workers wait for their chunk tasks inline, so once pool_ has joined
  // nothing can touch the chunk pool or its budget.
  std::unique_ptr<ThreadPool> chunk_pool_;
  std::unique_ptr<ConcurrencyBudget> chunk_budget_;
  /// Points into the two above; sequential when slca_chunk.workers is 0.
  ParallelExecOptions chunk_exec_;
  // Destroyed (joined) before everything above it, so in-flight tasks
  // never see partially-destroyed cache/metrics.
  ThreadPool pool_;
};

}  // namespace serve
}  // namespace xksearch

#endif  // XKSEARCH_SERVE_QUERY_SERVICE_H_
