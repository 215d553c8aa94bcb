#include "shard/scatter_gather.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace xksearch {
namespace shard {

namespace {

size_t PickWorkers(size_t configured, size_t shard_count) {
  if (configured != 0) return configured;
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(shard_count, hw));
}

}  // namespace

ScatterGatherExecutor::ScatterGatherExecutor(
    const ShardedCollection* collection, const ScatterGatherOptions& options)
    : collection_(collection) {
  serve::ThreadPool::Options pool_options;
  pool_options.workers =
      PickWorkers(options.workers, collection->shard_count());
  pool_options.queue_capacity = options.queue_capacity;
  pool_ = std::make_unique<serve::ThreadPool>(pool_options);
}

Result<ShardedResult> ScatterGatherExecutor::Search(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    const ParallelExecOptions& exec) const {
  Result<ShardedCollection::Plan> plan = collection_->PlanQuery(keywords);
  if (!plan.ok()) return plan.status();

  const size_t n = plan->candidates.size();
  std::vector<Result<SearchResult>> outcomes(
      n, Result<SearchResult>(Status::Internal("shard task never ran")));
  if (n > 1) {
    // Per-query completion latch; tasks only touch their own outcome
    // slot, so the mutex guards nothing but the latch itself.
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = n - 1;
    for (size_t i = 1; i < n; ++i) {
      const uint32_t s = plan->candidates[i];
      auto task = [this, &keywords, &options, &exec, &outcomes, &mu,
                   &done_cv, &pending, i, s]() {
        Result<SearchResult> r =
            collection_->SearchShard(s, keywords, options, exec);
        // Notify while holding the lock: the waiter owns the latch's
        // storage and destroys it as soon as it observes pending == 0,
        // so an unlocked notify could race the condvar's destruction.
        std::lock_guard<std::mutex> lock(mu);
        outcomes[i] = std::move(r);
        if (--pending == 0) done_cv.notify_one();
      };
      if (!pool_->Submit(task).ok()) {
        task();  // queue full: degrade to inline, never shed shard work
      }
    }
    outcomes[0] =
        collection_->SearchShard(plan->candidates[0], keywords, options, exec);
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&pending] { return pending == 0; });
  } else if (n == 1) {
    outcomes[0] =
        collection_->SearchShard(plan->candidates[0], keywords, options, exec);
  }
  return collection_->Gather(plan.MoveValueUnsafe(), std::move(outcomes));
}

}  // namespace shard
}  // namespace xksearch
