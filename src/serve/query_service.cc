#include "serve/query_service.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "engine/query_executor.h"
#include "index/tokenizer.h"
#include "storage/wal.h"

namespace xksearch {
namespace serve {

namespace {

uint64_t Nanos(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

QueryService::QueryService(const XKSearch* engine,
                           const QueryServiceOptions& options)
    : QueryService(engine, nullptr, nullptr, options) {}

QueryService::QueryService(const DiskSearcher* searcher,
                           const QueryServiceOptions& options)
    : QueryService(nullptr, searcher, nullptr, options) {}

QueryService::QueryService(const shard::ShardedCollection* collection,
                           const QueryServiceOptions& options)
    : QueryService(nullptr, nullptr, collection, options) {}

QueryService::QueryService(const XKSearch* engine, const DiskSearcher* searcher,
                           const shard::ShardedCollection* collection,
                           const QueryServiceOptions& options)
    : engine_(engine),
      searcher_(searcher),
      collection_(collection),
      options_(options),
      cache_(options.cache),
      pool_(options.pool) {
  if (collection_ != nullptr) {
    shard_exec_ = std::make_unique<shard::ScatterGatherExecutor>(
        collection_, options.shard_exec);
  }
  if (options.slca_chunk.workers > 0) {
    ThreadPool::Options chunk_pool;
    chunk_pool.workers = options.slca_chunk.workers;
    chunk_pool_ = std::make_unique<ThreadPool>(chunk_pool);
    const size_t tokens = options.slca_chunk.max_extra_workers > 0
                              ? options.slca_chunk.max_extra_workers
                              : options.slca_chunk.workers;
    chunk_budget_ = std::make_unique<ConcurrencyBudget>(tokens);
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  stopped_.store(true, std::memory_order_relaxed);
  // Flights retire as their leaders complete during the drain.
  pool_.Stop(/*drain=*/true);
  // Defensive sweep: with every worker joined no leader can retire a
  // flight anymore, so any entry still here would strand its followers'
  // futures forever. There should be none (every admitted leader ran or
  // was aborted), but a stuck future is the worst failure mode a serving
  // layer can hand a caller, so fail them loudly instead.
  std::vector<Flight::Follower> orphans;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    for (auto& [key, flight] : flights_) {
      for (Flight::Follower& follower : flight->followers) {
        orphans.push_back(std::move(follower));
      }
    }
    flights_.clear();
  }
  for (Flight::Follower& follower : orphans) {
    ++metrics_.failed;
    follower.promise->set_value(
        Status::Unavailable("query service shut down mid-flight"));
  }
}

Result<SearchResult> QueryService::RunQuery(
    const std::vector<std::string>& keywords,
    const SearchOptions& options) const {
  SearchOptions exec_options = options;
  if (chunk_pool_ != nullptr) {
    // Inject the service's chunk executor; the shared budget caps the
    // extra workers across every concurrent query and (for a sharded
    // collection) across the shard x chunk fan-out.
    exec_options.slca_exec.pool = chunk_pool_.get();
    exec_options.slca_exec.budget = chunk_budget_.get();
    exec_options.slca_exec.max_chunks =
        options_.slca_chunk.max_chunks > 0 ? options_.slca_chunk.max_chunks
                                           : options_.slca_chunk.workers + 1;
    exec_options.slca_exec.min_chunk_elements =
        options_.slca_chunk.min_chunk_elements;
  }
  if (collection_ != nullptr) {
    Result<shard::ShardedResult> sharded =
        shard_exec_->Search(keywords, exec_options);
    if (!sharded.ok()) return sharded.status();
    return std::move(sharded->result);
  }
  return engine_ != nullptr ? engine_->Search(keywords, exec_options)
                            : searcher_->Search(keywords, exec_options);
}

QueryCacheKey QueryService::MakeCacheKey(
    const std::vector<std::string>& keywords,
    const SearchOptions& options) const {
  const TokenizerOptions& tokenizer =
      engine_ != nullptr       ? engine_->index_options().tokenizer
      : collection_ != nullptr ? collection_->index_options().tokenizer
                               : searcher_->tokenizer();
  std::vector<std::string> words;
  words.reserve(keywords.size());
  for (const std::string& word : keywords) {
    words.push_back(NormalizeKeyword(word, tokenizer));
  }
  // Keyword order never affects the answer (the engine reorders lists by
  // frequency) and duplicate keywords contribute identical lists, so a
  // sorted deduplicated key maximizes hit rate across textual variants.
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return QueryCacheKey(words, options);
}

void QueryService::AbortFlight(const std::shared_ptr<Job>& job,
                               const Status& status) {
  std::vector<Flight::Follower> followers;
  if (job->in_flight) {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto it = flights_.find(job->key);
    if (it != flights_.end()) {
      followers = std::move(it->second->followers);
      flights_.erase(it);
    }
  }
  ++metrics_.rejected;
  job->promise->set_value(status);
  for (Flight::Follower& follower : followers) {
    ++metrics_.rejected;
    follower.promise->set_value(status);
  }
}

void QueryService::ExecuteJob(const std::shared_ptr<Job>& job) {
  const Clock::time_point picked_up = Clock::now();
  metrics_.queue_latency.Record(Nanos(picked_up - job->submitted));
  bool leader_resolved = false;
  if (picked_up >= job->deadline) {
    ++metrics_.deadline_exceeded;
    job->promise->set_value(
        Status::DeadlineExceeded("request deadline passed while queued"));
    if (!job->in_flight) return;
    {
      std::lock_guard<std::mutex> lock(flight_mu_);
      auto it = flights_.find(job->key);
      if (it == flights_.end()) return;
      if (it->second->followers.empty()) {
        // Nobody else is waiting: retire the flight and skip the work.
        flights_.erase(it);
        return;
      }
    }
    // Followers attached before the deadline fired; they carry their own
    // (possibly later) deadlines, so the execution still happens — just
    // with the leader's promise already resolved.
    leader_resolved = true;
  }
  if (options_.synthetic_backend_latency.count() > 0) {
    std::this_thread::sleep_for(options_.synthetic_backend_latency);
  }
  Result<SearchResult> result = RunQuery(job->keywords, job->options);

  // Publish atomically: the cache insert and the flight retirement
  // happen under one flight_mu_ hold, so a concurrent submitter either
  // hits the cache or attaches to this flight — there is no instant
  // where the result exists but neither path can see it (the lookup/
  // insert race the pre-single-flight service had).
  std::vector<Flight::Follower> followers;
  if (job->in_flight || (options_.enable_cache && result.ok())) {
    std::lock_guard<std::mutex> lock(flight_mu_);
    if (options_.enable_cache && result.ok()) cache_.Insert(job->key, *result);
    if (job->in_flight) {
      auto it = flights_.find(job->key);
      if (it != flights_.end()) {
        followers = std::move(it->second->followers);
        flights_.erase(it);
      }
    }
  }

  if (!result.ok()) {
    if (!leader_resolved) {
      ++metrics_.failed;
      if (result.status().IsIoError()) ++metrics_.io_errors;
      job->promise->set_value(result.status());
    }
    for (Flight::Follower& follower : followers) {
      ++metrics_.failed;
      if (result.status().IsIoError()) ++metrics_.io_errors;
      follower.promise->set_value(result.status());
    }
    return;
  }

  // One engine execution happened, so the aggregate advances once no
  // matter how many requests this answer fans out to.
  metrics_.engine_stats += result->stats;
  for (Flight::Follower& follower : followers) {
    ++metrics_.completed;
    QueryResponse response;
    response.result = *result;
    response.cache_hit = false;
    response.coalesced = true;
    response.latency = Clock::now() - follower.submitted;
    metrics_.request_latency.Record(Nanos(response.latency));
    follower.promise->set_value(std::move(response));
  }
  if (!leader_resolved) {
    ++metrics_.completed;
    QueryResponse response;
    response.result = result.MoveValueUnsafe();
    response.cache_hit = false;
    response.latency = Clock::now() - job->submitted;
    metrics_.request_latency.Record(Nanos(response.latency));
    job->promise->set_value(std::move(response));
  }
}

std::future<Result<QueryResponse>> QueryService::Submit(
    const std::vector<std::string>& keywords, const SearchOptions& options) {
  return SubmitWithTimeout(keywords, options, options_.default_timeout);
}

std::future<Result<QueryResponse>> QueryService::SubmitWithTimeout(
    const std::vector<std::string>& keywords, const SearchOptions& options,
    std::chrono::milliseconds timeout) {
  const Clock::time_point submitted = Clock::now();
  auto promise = std::make_shared<ResponsePromise>();
  std::future<Result<QueryResponse>> future = promise->get_future();

  if (stopped_.load(std::memory_order_relaxed)) {
    ++metrics_.rejected;
    promise->set_value(Status::Unavailable("query service is shut down"));
    return future;
  }

  // The canonical key is the identity for the result cache and for
  // single-flight coalescing; skip the normalization work only when
  // neither needs it.
  const bool keyed = options_.enable_cache || options_.single_flight;
  QueryCacheKey key;
  if (keyed) key = MakeCacheKey(keywords, options);

  // A hit's bytes are copied here under the locks and decoded after
  // them. The buffer keeps its capacity for this thread's next hit; it
  // never outgrows one cache shard's budget.
  thread_local std::string encoded;
  bool hit = false;
  bool in_flight = false;
  if (keyed) {
    std::lock_guard<std::mutex> lock(flight_mu_);
    hit = options_.enable_cache && cache_.Lookup(key, &encoded);
    if (!hit && options_.single_flight) {
      auto it = flights_.find(key);
      if (it != flights_.end()) {
        // Identical query already executing: ride it. The follower
        // performs no engine work of its own — not even a dispatch.
        it->second->followers.push_back(Flight::Follower{promise, submitted});
        ++metrics_.requests;
        ++metrics_.coalesced_queries;
        return future;
      }
      flights_.emplace(key, std::make_shared<Flight>());
      in_flight = true;
    }
  }
  if (hit) {
    ++metrics_.requests;
    QueryResponse response;
    const Status decoded = QueryCache::Decode(encoded, &response.result);
    if (!decoded.ok()) {
      ++metrics_.failed;
      promise->set_value(decoded);
      return future;
    }
    ++metrics_.completed;
    ++metrics_.cache_hits;
    response.cache_hit = true;
    response.latency = Clock::now() - submitted;
    metrics_.request_latency.Record(Nanos(response.latency));
    promise->set_value(std::move(response));
    return future;
  }

  auto job = std::make_shared<Job>();
  job->keywords = keywords;
  job->options = options;
  job->key = std::move(key);
  job->in_flight = in_flight;
  job->promise = promise;
  job->submitted = submitted;
  job->deadline = timeout.count() > 0 ? submitted + timeout
                                      : Clock::time_point::max();

  const Status admitted = pool_.Submit([this, job] { ExecuteJob(job); });
  if (!admitted.ok()) {
    AbortFlight(job, admitted);
    return future;
  }
  ++metrics_.requests;
  return future;
}

Result<QueryResponse> QueryService::Search(
    const std::vector<std::string>& keywords, const SearchOptions& options) {
  return Submit(keywords, options).get();
}

std::string QueryService::MetricsReport() const {
  MetricsRegistry::Gauges gauges;
  gauges.queue_depth = pool_.queue_depth();
  gauges.workers = pool_.workers();
  gauges.cache = cache_.GetStats();
  {
    const WalCounters& wal = WalCounters::Instance();
    gauges.wal.recoveries = wal.recoveries.load(std::memory_order_relaxed);
    gauges.wal.batches_replayed =
        wal.batches_replayed.load(std::memory_order_relaxed);
    gauges.wal.bytes_replayed =
        wal.bytes_replayed.load(std::memory_order_relaxed);
    gauges.wal.commits = wal.commits.load(std::memory_order_relaxed);
    gauges.wal.wal_bytes = wal.bytes_committed.load(std::memory_order_relaxed);
  }
  auto sample = [](const BufferPool& pool) {
    MetricsRegistry::PoolGauges g;
    g.present = true;
    g.hits = pool.total_hits();
    g.misses = pool.total_misses();
    g.exhausted = pool.total_exhausted();
    g.resident = pool.resident();
    g.capacity = pool.capacity();
    return g;
  };
  if (collection_ != nullptr) {
    const std::vector<shard::ShardCountersSnapshot> counters =
        collection_->CountersSnapshot();
    gauges.shards.resize(collection_->shard_count());
    for (uint32_t s = 0; s < collection_->shard_count(); ++s) {
      MetricsRegistry::ShardGauges& g = gauges.shards[s];
      g.shard = s;
      g.documents = collection_->shard_documents(s).size();
      g.executed = counters[s].executed;
      g.pruned = counters[s].pruned;
      g.io_errors = counters[s].io_errors;
      g.results = counters[s].results;
      const XKSearch* engine = collection_->shard_engine(s);
      if (engine != nullptr && engine->disk_index() != nullptr) {
        g.scan_pool = sample(*engine->disk_index()->scan_pool());
      }
    }
  } else {
    const DiskIndex* disk =
        engine_ != nullptr ? engine_->disk_index() : searcher_->index();
    if (disk != nullptr) {
      gauges.scan_pool = sample(*disk->scan_pool());
    }
  }
  return metrics_.ReportText(gauges);
}

}  // namespace serve
}  // namespace xksearch
