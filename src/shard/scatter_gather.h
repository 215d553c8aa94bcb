#ifndef XKSEARCH_SHARD_SCATTER_GATHER_H_
#define XKSEARCH_SHARD_SCATTER_GATHER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/thread_pool.h"
#include "shard/sharded_collection.h"

namespace xksearch {
namespace shard {

/// \brief Knobs for the parallel scatter-gather executor.
struct ScatterGatherOptions {
  /// Worker threads for shard fan-out; 0 picks
  /// min(shard count, hardware concurrency).
  size_t workers = 0;
  /// Pool queue capacity. Overflow never sheds shard work — a shard task
  /// the pool rejects just runs inline on the calling thread — so this
  /// only bounds how much fan-out queues up across concurrent queries.
  size_t queue_capacity = 1024;
};

/// \brief Fans one query's candidate shards out across a thread pool and
/// gathers the per-shard answers into the merged collection response.
///
/// Produces byte-identical results to ShardedCollection::Search (the
/// sequential reference): the plan, the per-shard work, the merge and the
/// first-candidate-wins error rule are all the collection's own; this
/// class only adds the parallel scheduling. The first candidate shard
/// always runs inline on the calling thread (there is no point paying a
/// handoff for work this thread would otherwise idle through), remaining
/// shards go to the pool, and a rejected Submit falls back to inline
/// execution. Search always waits for every scattered task — even after
/// a shard fails — so no task can outlive the call or touch freed state.
///
/// Thread-safe: any number of threads may call Search concurrently on
/// one executor (the serving layer does exactly that).
class ScatterGatherExecutor {
 public:
  ScatterGatherExecutor(const ShardedCollection* collection,
                        const ScatterGatherOptions& options = {});

  ScatterGatherExecutor(const ScatterGatherExecutor&) = delete;
  ScatterGatherExecutor& operator=(const ScatterGatherExecutor&) = delete;

  /// Parallel equivalent of ShardedCollection::Search.
  Result<ShardedResult> Search(const std::vector<std::string>& keywords,
                               const SearchOptions& options = {},
                               const ParallelExecOptions& exec = {}) const;

  size_t workers() const { return pool_->workers(); }

 private:
  const ShardedCollection* collection_;
  std::unique_ptr<serve::ThreadPool> pool_;
};

}  // namespace shard
}  // namespace xksearch

#endif  // XKSEARCH_SHARD_SCATTER_GATHER_H_
