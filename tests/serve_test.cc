// The serving layer: thread pool admission/lifecycle, the sharded result
// cache, deadlines, and the QueryService facade under concurrency.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "gtest/gtest.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"
#include "serve/query_service.h"
#include "serve/thread_pool.h"
#include "shard/sharded_collection.h"
#include "test_util.h"

namespace xksearch {
namespace serve {
namespace {

using testing_util::Strings;

std::unique_ptr<XKSearch> BuildCorpus() {
  DblpOptions gen;
  gen.papers = 600;
  gen.seed = 7;
  gen.plants = {{"alpha", 8}, {"bravo", 60}, {"carol", 400}};
  Result<Document> doc = GenerateDblp(gen);
  EXPECT_TRUE(doc.ok());
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc));
  EXPECT_TRUE(system.ok());
  return std::move(*system);
}

/// Blocks pool workers until Release(), to build deterministic queue
/// states in the tests below.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool::Options options;
  options.workers = 3;
  options.queue_capacity = 128;
  ThreadPool pool(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ++ran; }).ok());
  }
  pool.Stop(/*drain=*/true);
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_run(), 100u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, RejectsWhenQueueFull) {
  ThreadPool::Options options;
  options.workers = 1;
  options.queue_capacity = 2;
  ThreadPool pool(options);
  Gate gate;
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&] { gate.Wait(); ++ran; }).ok());
  // The worker is blocked; the queue holds at most 2 more.
  // Give the worker a moment to dequeue the gate task, so exactly the
  // queued tasks count against capacity.
  while (pool.queue_depth() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.Submit([&] { ++ran; }).ok());
  ASSERT_TRUE(pool.Submit([&] { ++ran; }).ok());
  const Status rejected = pool.Submit([&] { ++ran; });
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected.ToString();
  gate.Release();
  pool.Stop(/*drain=*/true);
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, StopWithoutDrainDiscardsQueuedTasks) {
  ThreadPool::Options options;
  options.workers = 1;
  options.queue_capacity = 8;
  ThreadPool pool(options);
  Gate gate;
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([&] { gate.Wait(); ++ran; }).ok());
  while (pool.queue_depth() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.Submit([&] { ++ran; }).ok());
  ASSERT_TRUE(pool.Submit([&] { ++ran; }).ok());
  std::thread stopper([&] { pool.Stop(/*drain=*/false); });
  // Release the gate only after Stop has switched the pool to discard
  // mode; otherwise the worker could pick up a queued task in between.
  while (!pool.stopping()) std::this_thread::yield();
  gate.Release();
  stopper.join();
  // Only the in-flight gate task ran; the queued two were discarded.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(pool.Submit([&] { ++ran; }).IsUnavailable());
}

TEST(StatusTest, ServingCodes) {
  const Status unavailable = Status::Unavailable("queue full");
  EXPECT_TRUE(unavailable.IsUnavailable());
  EXPECT_EQ(unavailable.ToString(), "Unavailable: queue full");
  const Status deadline = Status::DeadlineExceeded("too slow");
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_EQ(deadline.ToString(), "Deadline exceeded: too slow");
}

// Every semantic option changes both equality and the result-cache key
// (and so its hash); slca_exec, execution config, changes neither.
TEST(SearchOptionsTest, EqualityAndHashCoverEveryField) {
  const SearchOptions base;
  SearchOptions other = base;
  const QueryCacheKey base_key({"alpha"}, base);
  EXPECT_TRUE(base == other);
  EXPECT_TRUE(QueryCacheKey({"alpha"}, other) == base_key);

  const auto differs = [&](SearchOptions changed) {
    EXPECT_FALSE(base == changed);
    const QueryCacheKey key({"alpha"}, changed);
    EXPECT_FALSE(key == base_key);
    EXPECT_NE(QueryCacheKeyHash()(key), QueryCacheKeyHash()(base_key));
  };
  other = base;
  other.algorithm = AlgorithmChoice::kStack;
  differs(other);
  other = base;
  other.semantics = Semantics::kElca;
  differs(other);
  other = base;
  other.use_disk_index = true;
  differs(other);
  other = base;
  other.use_packed_lists = false;
  differs(other);
  other = base;
  other.block_size = 32;
  differs(other);
  other = base;
  other.auto_ratio_threshold = 2.0;
  differs(other);
  other = base;
  other.slca_exec.max_chunks = 4;
  EXPECT_TRUE(base == other);
  EXPECT_TRUE(QueryCacheKey({"alpha"}, other) == base_key);
}

SearchResult MakeResult(std::vector<DeweyId> nodes) {
  SearchResult result;
  result.nodes = std::move(nodes);
  result.algorithm = SlcaAlgorithm::kIndexedLookupEager;
  return result;
}

TEST(QueryCacheTest, HitMissAndLruEviction) {
  QueryCache::Options options;
  options.shards = 1;  // deterministic eviction order
  const QueryCacheKey key_a{{"alpha"}, SearchOptions()};
  const SearchResult value = MakeResult({DeweyId({0, 1}), DeweyId({0, 2})});
  // Budget for roughly three entries of this shape.
  options.capacity_bytes = 3 * QueryCache::ApproxEntryBytes(key_a, value) + 64;
  QueryCache cache(options);

  EXPECT_FALSE(cache.Lookup(key_a).has_value());
  cache.Insert(key_a, value);
  std::optional<SearchResult> hit = cache.Lookup(key_a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Strings(hit->nodes), Strings(value.nodes));

  QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  // Fill past budget; key_a stays hot via the lookup above plus one more
  // touch, so the LRU tail (the oldest untouched key) is evicted first.
  for (int i = 0; i < 4; ++i) {
    cache.Insert(QueryCacheKey{{"filler" + std::to_string(i)}, SearchOptions()},
                 value);
    (void)cache.Lookup(key_a);
  }
  stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_TRUE(cache.Lookup(key_a).has_value());

  cache.Clear();
  stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(cache.Lookup(key_a).has_value());
}

TEST(QueryCacheTest, RejectsEntriesAboveShardBudget) {
  QueryCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 1;
  QueryCache cache(options);
  cache.Insert(QueryCacheKey{{"alpha"}, SearchOptions()},
               MakeResult({DeweyId({0, 1})}));
  const QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.oversize_rejects, 1u);
}

TEST(QueryCacheTest, OptionsDistinguishEntries) {
  QueryCache cache(QueryCache::Options{});
  SearchOptions slca;
  SearchOptions elca;
  elca.semantics = Semantics::kElca;
  cache.Insert(QueryCacheKey{{"alpha"}, slca}, MakeResult({DeweyId({0, 1})}));
  EXPECT_TRUE(cache.Lookup(QueryCacheKey{{"alpha"}, slca}).has_value());
  EXPECT_FALSE(cache.Lookup(QueryCacheKey{{"alpha"}, elca}).has_value());
}

void ExpectSameResult(const SearchResult& got, const SearchResult& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.keywords, want.keywords);
  EXPECT_EQ(got.stats.match_ops, want.stats.match_ops);
  EXPECT_EQ(got.stats.dewey_comparisons, want.stats.dewey_comparisons);
  EXPECT_EQ(got.stats.lca_ops, want.stats.lca_ops);
  EXPECT_EQ(got.stats.postings_read, want.stats.postings_read);
  EXPECT_EQ(got.stats.page_reads, want.stats.page_reads);
  EXPECT_EQ(got.stats.page_hits, want.stats.page_hits);
  EXPECT_EQ(got.stats.io_errors, want.stats.io_errors);
  EXPECT_EQ(got.stats.results, want.stats.results);
}

TEST(QueryCacheTest, RoundTripsEveryResultShape) {
  std::vector<SearchResult> shapes;
  shapes.push_back(SearchResult());  // no nodes, no keywords
  shapes.push_back(MakeResult({DeweyId()}));
  shapes.push_back(MakeResult({DeweyId(), DeweyId({0, 1}), DeweyId(),
                               DeweyId({0, 1}), DeweyId()}));
  // Out of document order: an id after its descendant, a prefix after a
  // longer id, a jump back to an earlier subtree, a duplicate.
  shapes.push_back(MakeResult({DeweyId({0, 5, 2}), DeweyId({0, 5}),
                               DeweyId({0, 1, 9, 9}), DeweyId({0, 7}),
                               DeweyId({0, 7}), DeweyId({0})}));
  // Components of 2^28 and above take five-byte varints.
  shapes.push_back(MakeResult({DeweyId({0, 1u << 28, 0xffffffffu}),
                               DeweyId({0, 1u << 28, 0xfffffffeu, 3})}));
  // Depth above 127: the `added` and `shared` counts take two bytes.
  std::vector<uint32_t> deep(300);
  for (size_t i = 0; i < deep.size(); ++i) deep[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> deeper = deep;
  deeper.push_back(7);
  shapes.push_back(MakeResult(
      {DeweyId(deep), DeweyId(deeper), DeweyId({0, 1}), DeweyId(deep)}));
  // Keywords in engine order, duplicates included, and every stats field
  // and algorithm with distinct values.
  SearchResult full = MakeResult({DeweyId({0, 2, 4})});
  full.keywords = {"carol", "alpha", "carol", "", "bravo"};
  full.stats.match_ops = 1;
  full.stats.dewey_comparisons = 1ull << 40;
  full.stats.lca_ops = 3;
  full.stats.postings_read = 127;
  full.stats.page_reads = 128;
  full.stats.page_hits = ~0ull;
  full.stats.io_errors = 7;
  full.stats.results = 1;
  for (SlcaAlgorithm algorithm :
       {SlcaAlgorithm::kIndexedLookupEager, SlcaAlgorithm::kScanEager,
        SlcaAlgorithm::kStack}) {
    full.algorithm = algorithm;
    shapes.push_back(full);
  }

  QueryCache cache(QueryCache::Options{});
  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE(i);
    const QueryCacheKey key({"shape" + std::to_string(i)}, SearchOptions());
    cache.Insert(key, shapes[i]);
    std::string encoded;
    ASSERT_TRUE(cache.Lookup(key, &encoded));
    EXPECT_EQ(encoded.size() + key.bytes().size(),
              QueryCache::EncodedBytes(key, shapes[i]));
    std::optional<SearchResult> hit = cache.Lookup(key);
    ASSERT_TRUE(hit.has_value());
    ExpectSameResult(*hit, shapes[i]);
    // Decode overwrites whatever the target held.
    SearchResult reused = full;
    ASSERT_TRUE(QueryCache::Decode(encoded, &reused).ok());
    ExpectSameResult(reused, shapes[i]);
    // Every truncation is rejected, never read past.
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      SearchResult partial;
      EXPECT_FALSE(
          QueryCache::Decode(std::string_view(encoded).substr(0, cut),
                             &partial)
              .ok())
          << "cut at " << cut;
    }
  }
}

TEST(QueryCacheTest, ChargesEncodedBytesPlusBookkeeping) {
  const QueryCacheKey key({"alpha", "bravo"}, SearchOptions());
  for (const SearchResult& result :
       {SearchResult(), MakeResult({DeweyId({0, 1, 2})}),
        MakeResult(std::vector<DeweyId>(500, DeweyId({0, 3, 4, 5})))}) {
    const size_t encoded = QueryCache::EncodedBytes(key, result);
    // The byte string, plus at least a list node (two links) and a map
    // node (a link, the key view, the list iterator) around it.
    const size_t bookkeeping =
        2 * sizeof(void*) + sizeof(void*) + sizeof(std::string_view) +
        sizeof(void*);
    EXPECT_GE(QueryCache::ApproxEntryBytes(key, result),
              encoded + bookkeeping);
  }
}

TEST(QueryCacheTest, StaysWithinBudgetUnderMixedInserts) {
  QueryCache::Options options;
  options.shards = 4;
  options.capacity_bytes = 64u << 10;
  QueryCache cache(options);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    // Answers from empty to a few hundred nodes; some keys repeat, so
    // replacements mix with fresh inserts, lookups and evictions.
    const QueryCacheKey key({"k" + std::to_string(rng.Uniform(3000))},
                            SearchOptions());
    std::vector<DeweyId> nodes(rng.Uniform(10) == 0 ? rng.Uniform(400)
                                                    : rng.Uniform(20));
    for (DeweyId& id : nodes) {
      id = DeweyId({0, static_cast<uint32_t>(rng.Uniform(50)),
                    static_cast<uint32_t>(rng.Uniform(1u << 20))});
    }
    cache.Insert(key, MakeResult(std::move(nodes)));
    if (rng.Uniform(4) == 0) (void)cache.Lookup(key);
    const QueryCache::Stats stats = cache.GetStats();
    ASSERT_LE(stats.bytes, options.capacity_bytes) << "after insert " << i;
  }
  const QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.insertions + stats.oversize_rejects, 10000u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(QueryCacheTest, HoldsAThousandTypicalAnswersPerMiB) {
  // Two keywords, 77 nodes of depth 6 in document order: the shape of a
  // bibliography answer (root.venue.year.paper.field.word).
  QueryCache::Options options;
  options.capacity_bytes = 1u << 20;
  QueryCache cache(options);
  constexpr uint32_t kAnswers = 1000;
  for (uint32_t q = 0; q < kAnswers; ++q) {
    std::vector<DeweyId> nodes;
    for (uint32_t i = 0; i < 77; ++i) {
      nodes.push_back(DeweyId({0, (q + i) % 5, i / 8, 40 * i + q % 40,
                               2 + i % 3, i % 7}));
    }
    SearchResult result = MakeResult(std::move(nodes));
    result.keywords = {"t" + std::to_string(q), "t" + std::to_string(q + 1)};
    result.stats.match_ops = 154;
    result.stats.postings_read = 900 + q;
    cache.Insert(QueryCacheKey(result.keywords, SearchOptions()), result);
  }
  const QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, kAnswers);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.capacity_bytes);
}

TEST(QueryCacheConcurrencyTest, EveryHitEqualsWhatWasInserted) {
  QueryCache::Options options;
  options.shards = 1;  // every thread on one shard mutex
  options.capacity_bytes = 16u << 10;
  QueryCache cache(options);
  // Key i always maps to the same answer, so any hit can be checked.
  auto answer = [](uint32_t i) {
    std::vector<DeweyId> nodes;
    for (uint32_t n = 0; n < i % 13; ++n) nodes.push_back(DeweyId({0, i, n}));
    SearchResult result = MakeResult(std::move(nodes));
    result.keywords = {"k" + std::to_string(i)};
    result.stats.match_ops = i;
    return result;
  };
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int op = 0; op < 4000; ++op) {
        const uint32_t i = static_cast<uint32_t>(rng.Uniform(64));
        const QueryCacheKey key({"k" + std::to_string(i)}, SearchOptions());
        const uint64_t dice = rng.Uniform(100);
        if (dice < 45) {
          cache.Insert(key, answer(i));
        } else if (dice < 99) {
          std::optional<SearchResult> hit = cache.Lookup(key);
          if (!hit.has_value()) continue;
          ++hits;
          const SearchResult want = answer(i);
          if (hit->nodes != want.nodes || hit->keywords != want.keywords ||
              hit->stats.match_ops != want.stats.match_ops) {
            ++wrong;
          }
        } else {
          cache.Clear();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_LE(cache.GetStats().bytes, options.capacity_bytes);
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBucketed) {
  LatencyHistogram histogram;
  for (int i = 0; i < 900; ++i) histogram.Record(1000);     // ~1us
  for (int i = 0; i < 100; ++i) histogram.Record(1000000);  // ~1ms
  const LatencyHistogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  const uint64_t p50 = snap.PercentileNanos(0.50);
  const uint64_t p99 = snap.PercentileNanos(0.99);
  // Log buckets: 1000ns lands in [512, 1024), 1e6 in [524288, 1048576).
  EXPECT_GE(p50, 512u);
  EXPECT_LT(p50, 1024u);
  EXPECT_GE(p99, 524288u);
  EXPECT_LT(p99, 1048576u);
  EXPECT_LE(p50, p99);
}

TEST(QueryServiceTest, CacheKeyCanonicalizesKeywords) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryService service(system.get(), QueryServiceOptions{});
  const QueryCacheKey a =
      service.MakeCacheKey({"Alpha", "BRAVO"}, SearchOptions());
  const QueryCacheKey b =
      service.MakeCacheKey({"bravo", "alpha", "alpha"}, SearchOptions());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(QueryCacheKeyHash()(a), QueryCacheKeyHash()(b));
  EXPECT_EQ(a.keywords(), (std::vector<std::string>{"alpha", "bravo"}));
  // The NUL after each keyword keeps word boundaries apart.
  EXPECT_FALSE(QueryCacheKey({"ab", "c"}, SearchOptions()) ==
               QueryCacheKey({"a", "bc"}, SearchOptions()));
}

TEST(QueryServiceTest, CacheHitMatchesEngineAndCounts) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  Result<SearchResult> direct = system->Search({"alpha", "carol"});
  ASSERT_TRUE(direct.ok());

  QueryServiceOptions options;
  options.pool.workers = 2;
  QueryService service(system.get(), options);

  Result<QueryResponse> first = service.Search({"alpha", "carol"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(Strings(first->result.nodes), Strings(direct->nodes));

  Result<QueryResponse> second = service.Search({"carol", "alpha"});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(Strings(second->result.nodes), Strings(direct->nodes));

  EXPECT_EQ(service.metrics().requests, 2u);
  EXPECT_EQ(service.metrics().completed, 2u);
  EXPECT_EQ(service.metrics().cache_hits, 1u);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().insertions, 1u);
}

TEST(QueryServiceTest, DeadlineExpiresWhileQueued) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryServiceOptions options;
  options.pool.workers = 1;
  options.enable_cache = false;
  // The single worker sleeps 50ms per request, so the second request's
  // 1ms deadline is long gone when it is picked up.
  options.synthetic_backend_latency = std::chrono::microseconds(50000);
  QueryService service(system.get(), options);

  std::future<Result<QueryResponse>> blocker =
      service.Submit({"alpha"}, SearchOptions());
  std::future<Result<QueryResponse>> doomed = service.SubmitWithTimeout(
      {"carol"}, SearchOptions(), std::chrono::milliseconds(1));

  const Result<QueryResponse> blocked = blocker.get();
  EXPECT_TRUE(blocked.ok()) << blocked.status().ToString();
  const Result<QueryResponse> expired = doomed.get();
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();
  EXPECT_EQ(service.metrics().deadline_exceeded, 1u);
}

TEST(QueryServiceTest, ShedsLoadWhenQueueFull) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryServiceOptions options;
  options.pool.workers = 1;
  options.pool.queue_capacity = 1;
  options.enable_cache = false;
  // Identical queries would coalesce onto one flight instead of piling
  // into the queue (see the SingleFlight tests); turn that off so the
  // submissions genuinely contend for queue slots.
  options.single_flight = false;
  options.synthetic_backend_latency = std::chrono::microseconds(20000);
  QueryService service(system.get(), options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit({"alpha"}, SearchOptions()));
  }
  int ok = 0;
  int rejected = 0;
  for (auto& future : futures) {
    const Result<QueryResponse> response = future.get();
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(response.status().IsUnavailable())
          << response.status().ToString();
      ++rejected;
    }
  }
  // 1 in flight + 1 queued can succeed; with 6 rapid submissions at least
  // one must have been shed.
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().rejected),
            static_cast<uint64_t>(rejected));
}

TEST(QueryServiceTest, RejectsAfterShutdown) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryService service(system.get(), QueryServiceOptions{});
  service.Shutdown();
  const Result<QueryResponse> response = service.Search({"alpha"});
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
}

TEST(QueryServiceTest, DeterministicUnderConcurrentSubmitters) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "carol"}, {"bravo", "carol"}, {"alpha", "bravo", "carol"},
      {"alpha"},          {"carol"},
  };
  std::vector<std::vector<std::string>> expected;
  for (const auto& query : queries) {
    Result<SearchResult> direct = system->Search(query);
    ASSERT_TRUE(direct.ok());
    expected.push_back(Strings(direct->nodes));
  }

  QueryServiceOptions options;
  options.pool.workers = 4;
  options.pool.queue_capacity = 4096;
  QueryService service(system.get(), options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t qi = static_cast<size_t>(t + r) % queries.size();
        Result<QueryResponse> response = service.Search(queries[qi]);
        if (!response.ok() ||
            Strings(response->result.nodes) != expected[qi]) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(service.metrics().requests, uint64_t{kThreads * kRounds});
  EXPECT_EQ(service.metrics().completed, uint64_t{kThreads * kRounds});
  // 5 distinct canonical queries; in the worst case every thread misses
  // each query once before its first insertion lands.
  EXPECT_GE(service.metrics().cache_hits,
            uint64_t{kThreads * kRounds - kThreads * 5});
}

TEST(QueryServiceTest, MetricsReportRendersEverySection) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryService service(system.get(), QueryServiceOptions{});
  ASSERT_TRUE(service.Search({"alpha", "bravo"}).ok());
  ASSERT_TRUE(service.Search({"alpha", "bravo"}).ok());
  const std::string report = service.MetricsReport();
  for (const char* needle :
       {"requests:", "completed:", "cache_hits:", "rejected:", "latency_us:",
        "queue_wait_us:", "queue_depth:", "cache:", "hit_ratio=", "engine:",
        "match_ops="}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n"
        << report;
  }
  // No disk index behind this engine: the pool gauge lines are omitted.
  EXPECT_EQ(report.find("scan_pool:"), std::string::npos);
}

TEST(QueryServiceTest, ServesDiskSearcherBackend) {
  DblpOptions gen;
  gen.papers = 300;
  gen.seed = 11;
  gen.plants = {{"alpha", 6}, {"carol", 200}};
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok());
  XKSearch::BuildOptions build;
  build.build_disk_index = true;
  build.disk.in_memory = true;
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc), build);
  ASSERT_TRUE(system.ok());
  DiskSearcher searcher((*system)->disk_index(),
                        (*system)->index_options().tokenizer);

  Result<SearchResult> direct = searcher.Search({"alpha", "carol"});
  ASSERT_TRUE(direct.ok());

  QueryServiceOptions options;
  options.pool.workers = 4;
  QueryService service(&searcher, options);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < 20; ++r) {
        Result<QueryResponse> response = service.Search({"alpha", "carol"});
        if (!response.ok() ||
            Strings(response->result.nodes) != Strings(direct->nodes)) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);

  // A disk backend adds the buffer-pool gauge lines to the report (an
  // in-memory engine omits them, see MetricsReportRendersEverySection).
  const std::string report = service.MetricsReport();
  for (const char* needle : {"scan_pool:", "exhausted="}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n"
        << report;
  }
}

std::unique_ptr<shard::ShardedCollection> BuildShardedCorpus(size_t shards) {
  shard::ShardedCollectionOptions options;
  options.shards = shards;
  shard::ShardedCollection::Builder builder(options);
  XKS_EXPECT_OK(builder.AddXml(
      "papers",
      "<papers><paper><title>keyword search</title><author>xu</author>"
      "</paper><paper><title>slca survey</title><author>xu</author>"
      "</paper></papers>"));
  XKS_EXPECT_OK(builder.AddXml(
      "books", "<books><book><title>keyword indexing</title>"
               "<author>chen</author></book></books>"));
  XKS_EXPECT_OK(builder.AddXml(
      "memos", "<memos><memo>standup topics</memo></memos>"));
  Result<std::unique_ptr<shard::ShardedCollection>> built =
      std::move(builder).Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? built.MoveValueUnsafe() : nullptr;
}

TEST(QueryServiceTest, ServesShardedCollectionBackend) {
  std::unique_ptr<shard::ShardedCollection> collection = BuildShardedCorpus(3);
  ASSERT_NE(collection, nullptr);
  Result<shard::ShardedResult> direct = collection->Search({"keyword"});
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->result.nodes.empty());

  QueryServiceOptions options;
  options.shard_exec.workers = 2;
  QueryService service(collection.get(), options);
  Result<QueryResponse> miss = service.Search({"keyword"});
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(Strings(miss->result.nodes), Strings(direct->result.nodes));

  // Keyword order/case never change the answer, so the canonicalized
  // cache key turns the textual variant into a hit with the same nodes.
  Result<QueryResponse> hit = service.Search({"KEYWORD", "keyword"});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(Strings(hit->result.nodes), Strings(direct->result.nodes));
  EXPECT_EQ(service.metrics().cache_hits.load(), 1u);

  // Engine errors surface unchanged through the service.
  EXPECT_TRUE(service.Search({"..."}).status().IsInvalidArgument());
}

TEST(QueryServiceTest, ShardedResponseCarriesAggregatedStats) {
  std::unique_ptr<shard::ShardedCollection> collection = BuildShardedCorpus(3);
  ASSERT_NE(collection, nullptr);
  // Reference run: the response-total stats must equal the field-wise sum
  // of the per-shard stats (the aggregation identity the gather stage
  // maintains), and the service must serve exactly those totals.
  Result<shard::ShardedResult> direct = collection->Search({"keyword"});
  ASSERT_TRUE(direct.ok());
  QueryStats sum;
  uint64_t contributed = 0;
  for (const shard::ShardQueryStats& s : direct->shards) {
    sum += s.stats;
    contributed += s.results;
  }
  EXPECT_EQ(sum.match_ops.load(), direct->result.stats.match_ops.load());
  EXPECT_EQ(sum.postings_read.load(),
            direct->result.stats.postings_read.load());
  EXPECT_EQ(sum.io_errors.load(), direct->result.stats.io_errors.load());
  EXPECT_EQ(contributed, direct->result.nodes.size());

  QueryServiceOptions options;
  options.enable_cache = false;
  QueryService service(collection.get(), options);
  Result<QueryResponse> response = service.Search({"keyword"});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->result.stats.match_ops.load(), sum.match_ops.load());
  // The service-level aggregate accumulated the same merged totals.
  EXPECT_EQ(service.metrics().engine_stats.match_ops.load(),
            sum.match_ops.load());
}

TEST(QueryServiceTest, ShardedMetricsReportHasPerShardGauges) {
  std::unique_ptr<shard::ShardedCollection> collection = BuildShardedCorpus(3);
  ASSERT_NE(collection, nullptr);
  QueryServiceOptions options;
  options.enable_cache = false;
  QueryService service(collection.get(), options);
  ASSERT_TRUE(service.Search({"keyword"}).ok());
  // "standup" lives only in one document; the other shards are pruned
  // and the per-shard gauges must show it.
  ASSERT_TRUE(service.Search({"standup"}).ok());
  const std::string report = service.MetricsReport();
  for (const char* needle :
       {"shard[0]:", "shard[1]:", "shard[2]:", "docs=", "executed=",
        "pruned=", "io_errors="}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n"
        << report;
  }
  uint64_t executed = 0;
  uint64_t pruned = 0;
  for (const shard::ShardCountersSnapshot& c : collection->CountersSnapshot()) {
    executed += c.executed;
    pruned += c.pruned;
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(executed, 0u);
}

// `hot_list_bytes` is a no-op kept for callers that still set it: every
// in-memory query probes the packed arenas in place whatever it says.
// Setting it must change neither the answer nor the paper's counters,
// and the service must report no hot-list activity at all.
TEST(QueryServiceTest, HotListServingMatchesColdResultsAndReports) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  const std::vector<std::string> query = {"alpha", "carol"};
  Result<SearchResult> cold = system->Search(query);
  ASSERT_TRUE(cold.ok());

  QueryServiceOptions options;
  options.pool.workers = 2;
  options.enable_cache = false;  // every Search runs the engine
  options.hot_list_bytes = 64 << 20;
  QueryService service(system.get(), options);
  for (int i = 0; i < 4; ++i) {
    Result<QueryResponse> response = service.Search(query);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->cache_hit);
    EXPECT_EQ(response->result.nodes, cold->nodes);
    EXPECT_EQ(response->result.stats.match_ops.load(),
              cold->stats.match_ops.load());
    EXPECT_EQ(response->result.stats.postings_read.load(),
              cold->stats.postings_read.load());
  }
  const QueryService::HotListStats stats = service.hot_list_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  const std::string report = service.MetricsReport();
  EXPECT_EQ(report.find("hot_lists:"), std::string::npos) << report;

  // InvalidateCache has only cached results to drop; answers are
  // unaffected.
  service.InvalidateCache();
  Result<QueryResponse> after = service.Search(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.nodes, cold->nodes);
}

// --- Single-flight coalescing.

TEST(SingleFlightTest, CoalescedQueriesShareOneExecutionAndDecodeNothing) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  const std::vector<std::string> query = {"alpha", "carol"};
  Result<SearchResult> reference = system->Search(query);
  ASSERT_TRUE(reference.ok());

  QueryServiceOptions options;
  options.pool.workers = 2;
  options.enable_cache = false;  // isolate single-flight from the cache
  options.single_flight = true;
  // Widen the in-flight window so the follower submissions below land
  // while the leader is still executing.
  options.synthetic_backend_latency = std::chrono::microseconds(50000);
  QueryService service(system.get(), options);

  // The flight registers synchronously at Submit, so every follower
  // attaches no matter when the leader's worker picks the job up.
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(query, SearchOptions()));
  }
  int coalesced = 0;
  for (auto& future : futures) {
    Result<QueryResponse> response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->cache_hit);
    EXPECT_EQ(response->result.nodes, reference->nodes);
    EXPECT_EQ(response->result.stats.match_ops.load(),
              reference->stats.match_ops.load());
    if (response->coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 5);
  EXPECT_EQ(service.metrics().coalesced_queries, 5u);
  EXPECT_EQ(service.metrics().requests, 6u);
  EXPECT_EQ(service.metrics().completed, 6u);
  // The aggregate engine counters advanced by exactly ONE execution:
  // the five coalesced requests decoded and matched nothing of their
  // own. (postings_read covers the decode side, match_ops the SLCA
  // side; both would be ~6x on a service that ran every duplicate.)
  EXPECT_EQ(service.metrics().engine_stats.match_ops.load(),
            reference->stats.match_ops.load());
  EXPECT_EQ(service.metrics().engine_stats.postings_read.load(),
            reference->stats.postings_read.load());
  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("coalesced:"), std::string::npos) << report;
}

// Regression test for the result-cache stampede: a cache lookup that
// missed used to race the miss's execution, so N identical queries
// submitted before the first insert all executed. Publication is now
// atomic with flight retirement: a submitter either hits the cache or
// attaches to the in-flight execution, never the gap between them.
TEST(SingleFlightTest, ClosesCacheLookupInsertRaceUnderStampede) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  const std::vector<std::string> query = {"bravo", "carol"};
  Result<SearchResult> reference = system->Search(query);
  ASSERT_TRUE(reference.ok());

  QueryServiceOptions options;
  options.pool.workers = 4;
  options.enable_cache = true;
  options.single_flight = true;
  QueryService service(system.get(), options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        Result<QueryResponse> response = service.Search(query);
        if (!response.ok() || response->result.nodes != reference->nodes) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(service.metrics().requests, uint64_t{kThreads * kRounds});
  EXPECT_EQ(service.metrics().completed, uint64_t{kThreads * kRounds});
  // The stampede collapses to exactly one engine execution: everyone
  // else was a cache hit or a coalesced follower.
  EXPECT_EQ(service.metrics().engine_stats.match_ops.load(),
            reference->stats.match_ops.load());
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().cache_hits) +
                static_cast<uint64_t>(service.metrics().coalesced_queries),
            uint64_t{kThreads * kRounds - 1});
}

TEST(SingleFlightTest, ExpiredLeaderStillServesItsFollowers) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryServiceOptions options;
  options.pool.workers = 1;  // one worker: the blocker delays the leader
  options.enable_cache = false;
  options.single_flight = true;
  options.synthetic_backend_latency = std::chrono::microseconds(30000);
  QueryService service(system.get(), options);

  // Occupy the only worker for ~30ms.
  std::future<Result<QueryResponse>> blocker =
      service.Submit({"alpha"}, SearchOptions());
  // The leader's 5ms deadline will have passed by pickup; the followers
  // (no deadline) attach to its flight meanwhile.
  std::future<Result<QueryResponse>> leader = service.SubmitWithTimeout(
      {"bravo", "carol"}, SearchOptions(), std::chrono::milliseconds(5));
  std::vector<std::future<Result<QueryResponse>>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(service.Submit({"bravo", "carol"}, SearchOptions()));
  }

  ASSERT_TRUE(blocker.get().ok());
  const Result<QueryResponse> expired = leader.get();
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();
  // The execution still happened — for the followers' sake.
  for (auto& future : followers) {
    Result<QueryResponse> response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->coalesced);
  }
  EXPECT_EQ(service.metrics().deadline_exceeded, 1u);
  EXPECT_EQ(service.metrics().coalesced_queries, 3u);
}

TEST(SingleFlightTest, DistinctQueriesNeverCoalesce) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  QueryServiceOptions options;
  options.pool.workers = 2;
  options.enable_cache = false;
  options.single_flight = true;
  options.synthetic_backend_latency = std::chrono::microseconds(20000);
  QueryService service(system.get(), options);

  // Same in-flight window, different canonical keys.
  std::future<Result<QueryResponse>> a =
      service.Submit({"alpha"}, SearchOptions());
  std::future<Result<QueryResponse>> b =
      service.Submit({"bravo"}, SearchOptions());
  SearchOptions scan;
  scan.algorithm = AlgorithmChoice::kScanEager;
  // Same keywords but different semantic options: its own flight too.
  std::future<Result<QueryResponse>> c = service.Submit({"alpha"}, scan);
  ASSERT_TRUE(a.get().ok());
  ASSERT_TRUE(b.get().ok());
  ASSERT_TRUE(c.get().ok());
  EXPECT_EQ(service.metrics().coalesced_queries, 0u);
}

// There is no batch window: concurrent submissions each run on their own
// worker over the shared packed arenas. Overlapping queries submitted
// together must still match the raw engine exactly, and work is still
// shared where the answer is the same: the one canonically duplicate
// query attaches to its twin's execution through single-flight instead
// of decoding and matching its lists again.
TEST(BatchedServiceTest, BatchedExecutionMatchesUnbatchedAndSharesDecodes) {
  std::unique_ptr<XKSearch> system = BuildCorpus();

  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "carol"}, {"bravo", "carol"}, {"alpha", "bravo"},
      {"carol", "alpha"},  // same canonical query as the first
      {"bravo", "carol", "alpha"},
  };
  // Reference: the raw engine, no serving layer at all.
  std::vector<SearchResult> reference;
  for (const auto& query : queries) {
    Result<SearchResult> r = system->Search(query, SearchOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(std::move(*r));
  }

  QueryServiceOptions options;
  options.pool.workers = 4;
  options.enable_cache = false;
  options.single_flight = true;
  // Widen the in-flight window so the duplicate lands while its twin is
  // still executing.
  options.synthetic_backend_latency = std::chrono::microseconds(50000);
  QueryService service(system.get(), options);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (const auto& query : queries) {
    futures.push_back(service.Submit(query, SearchOptions()));
  }
  int coalesced = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResponse> response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->result.nodes, reference[i].nodes) << "query " << i;
    EXPECT_EQ(static_cast<uint64_t>(response->result.stats.match_ops),
              static_cast<uint64_t>(reference[i].stats.match_ops))
        << "query " << i;
    EXPECT_EQ(static_cast<uint64_t>(response->result.stats.results),
              static_cast<uint64_t>(reference[i].stats.results))
        << "query " << i;
    if (response->coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 1);

  // The engine ran the four distinct queries once each and nothing more.
  uint64_t match_ops = 0;
  uint64_t postings_read = 0;
  for (size_t i : {0, 1, 2, 4}) {
    match_ops += reference[i].stats.match_ops.load();
    postings_read += reference[i].stats.postings_read.load();
  }
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_EQ(static_cast<uint64_t>(metrics.requests), queries.size());
  EXPECT_EQ(static_cast<uint64_t>(metrics.coalesced_queries), 1u);
  EXPECT_EQ(metrics.engine_stats.match_ops.load(), match_ops);
  EXPECT_EQ(metrics.engine_stats.postings_read.load(), postings_read);
}

}  // namespace
}  // namespace serve
}  // namespace xksearch
