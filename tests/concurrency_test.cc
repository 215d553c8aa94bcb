// The whole query surface is concurrent: the in-memory path is read-only
// after build, and the disk path runs on sharded thread-safe buffer
// pools with per-query stats — so a const XKSearch or DiskSearcher can
// serve parallel queries from many threads with no internal
// serialization. These tests pin down that contract, plus QueryService —
// the layer that multiplexes both paths behind a thread pool and result
// cache.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gen/dblp_generator.h"
#include "gtest/gtest.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Strings;

std::unique_ptr<XKSearch> BuildCorpus() {
  DblpOptions gen;
  gen.papers = 3000;
  gen.seed = 99;
  gen.plants = {{"alpha", 20}, {"bravo", 300}, {"carol", 2500}};
  Result<Document> doc = GenerateDblp(gen);
  EXPECT_TRUE(doc.ok());
  Result<std::unique_ptr<XKSearch>> system =
      XKSearch::BuildFromDocument(std::move(*doc));
  EXPECT_TRUE(system.ok());
  return std::move(*system);
}

TEST(ConcurrencyTest, ParallelIdenticalQueriesAgree) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  Result<SearchResult> expected = system->Search({"alpha", "carol"});
  ASSERT_TRUE(expected.ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int r = 0; r < kRounds; ++r) {
        Result<SearchResult> got = system->Search({"alpha", "carol"});
        if (!got.ok()) {
          ++failures;
          return;
        }
        if (Strings(got->nodes) != Strings(expected->nodes)) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelMixedWorkload) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "carol"}, {"bravo", "carol"}, {"alpha", "bravo", "carol"},
      {"alpha"},          {"carol"},
  };
  std::vector<std::vector<std::string>> expected;
  for (const auto& q : queries) {
    Result<SearchResult> r = system->Search(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(Strings(r->nodes));
  }

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < 40; ++r) {
        const size_t qi = static_cast<size_t>(t + r) % queries.size();
        SearchOptions options;
        // Exercise all three algorithms concurrently.
        options.algorithm = static_cast<AlgorithmChoice>(1 + (t + r) % 3);
        Result<SearchResult> got = system->Search(queries[qi], options);
        if (!got.ok() || Strings(got->nodes) != expected[qi]) ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ConcurrencyTest, ParallelSemantics) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  std::vector<std::vector<std::string>> expected(3);
  for (int s = 0; s < 3; ++s) {
    SearchOptions options;
    options.semantics = static_cast<Semantics>(s);
    Result<SearchResult> r = system->Search({"alpha", "bravo"}, options);
    ASSERT_TRUE(r.ok());
    expected[static_cast<size_t>(s)] = Strings(r->nodes);
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < 30; ++r) {
        const int s = (t + r) % 3;
        SearchOptions options;
        options.semantics = static_cast<Semantics>(s);
        Result<SearchResult> got = system->Search({"alpha", "bravo"}, options);
        if (!got.ok() ||
            Strings(got->nodes) != expected[static_cast<size_t>(s)]) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ConcurrencyTest, ParallelDiskQueriesAgree) {
  DblpOptions gen;
  gen.papers = 1500;
  gen.seed = 42;
  gen.plants = {{"alpha", 15}, {"carol", 1200}};
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok());
  XKSearch::BuildOptions build;
  build.build_disk_index = true;
  build.disk.in_memory = true;
  Result<std::unique_ptr<XKSearch>> built =
      XKSearch::BuildFromDocument(std::move(*doc), build);
  ASSERT_TRUE(built.ok());
  const std::unique_ptr<XKSearch>& system = *built;

  SearchOptions options;
  options.use_disk_index = true;
  Result<SearchResult> expected = system->Search({"alpha", "carol"}, options);
  ASSERT_TRUE(expected.ok());

  // Disk queries run fully in parallel on the sharded buffer pools;
  // concurrent const callers must still agree with the baseline.
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&]() {
      for (int r = 0; r < 20; ++r) {
        Result<SearchResult> got =
            system->Search({"alpha", "carol"}, options);
        if (!got.ok() || Strings(got->nodes) != Strings(expected->nodes)) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// Stress the fully concurrent disk read path: 8 threads hammer one
// shared DiskSearcher whose pools are deliberately tiny (constant
// eviction), while a chaos thread flips the caches
// between cold (DropCaches) and hot (WarmCaches). Written to run under
// tsan (the preset's test filter includes this suite); the asserted
// invariants are
//   * every concurrent result equals its single-threaded baseline,
//   * per-query stats charge every fetch exactly once (reads + hits),
//   * no pin leaks: once the threads join, DropCaches succeeds and both
//     pools are empty.
TEST(ConcurrencyTest, DiskSearcherParallelStress) {
  DblpOptions gen;
  gen.papers = 1200;
  gen.seed = 7;
  gen.plants = {{"alpha", 12}, {"bravo", 150}, {"carol", 900}};
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok());
  XKSearch::BuildOptions build;
  build.build_disk_index = true;
  build.disk.in_memory = true;
  // A tiny pool forces eviction on nearly every query.
  build.disk.scan_pool_pages = 128;
  Result<std::unique_ptr<XKSearch>> built =
      XKSearch::BuildFromDocument(std::move(*doc), build);
  ASSERT_TRUE(built.ok());
  DiskIndex* index = (*built)->disk_index();
  ASSERT_NE(index, nullptr);
  const DiskSearcher searcher(index, index->tokenizer());

  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "carol"}, {"bravo", "carol"}, {"alpha", "bravo", "carol"},
      {"alpha"},          {"bravo"},
  };
  std::vector<std::vector<std::string>> expected;
  std::vector<uint64_t> expected_results;
  for (const auto& q : queries) {
    Result<SearchResult> r = searcher.Search(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(Strings(r->nodes));
    expected_results.push_back(r->stats.results);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> bad{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const size_t qi = static_cast<size_t>(t * 3 + r) % queries.size();
        SearchOptions options;
        options.algorithm = static_cast<AlgorithmChoice>(1 + (t + r) % 3);
        Result<SearchResult> got = searcher.Search(queries[qi], options);
        if (!got.ok() || Strings(got->nodes) != expected[qi] ||
            got->stats.results != expected_results[qi]) {
          ++bad;
          return;
        }
        // Per-query accounting is self-consistent: a disk query touches
        // at least one page, each charged as exactly one read or hit.
        if (got->stats.page_reads + got->stats.page_hits == 0) {
          ++bad;
          return;
        }
      }
    });
  }
  // Chaos thread: flip the caches hot/cold underneath the queries.
  // DropCaches legitimately fails while any query holds a pin.
  std::thread chaos([&]() {
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (++flips % 2 == 0) {
        const Status st = index->DropCaches();
        if (!st.ok() && !st.IsInternal()) {
          ++bad;
          return;
        }
      } else if (!index->WarmCaches().ok()) {
        ++bad;
        return;
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  stop = true;
  chaos.join();
  EXPECT_EQ(bad.load(), 0);

  // No pins leaked: with every query finished, the caches drop cleanly.
  XKS_ASSERT_OK(index->DropCaches());
  EXPECT_EQ(index->scan_pool()->resident(), 0u);
}

TEST(ConcurrencyTest, QueryServiceMixedHotColdHammer) {
  std::unique_ptr<XKSearch> system = BuildCorpus();
  // Hot queries repeat across every thread (cache-hit path); cold ones
  // are thread-unique variations that keep missing and exercising the
  // pool + engine concurrently with the hits.
  const std::vector<std::vector<std::string>> hot = {
      {"alpha", "carol"}, {"bravo", "carol"}, {"alpha", "bravo"},
  };
  std::vector<std::vector<std::string>> hot_expected;
  for (const auto& q : hot) {
    Result<SearchResult> r = system->Search(q);
    ASSERT_TRUE(r.ok());
    hot_expected.push_back(Strings(r->nodes));
  }

  serve::QueryServiceOptions options;
  options.pool.workers = 4;
  options.pool.queue_capacity = 4096;
  serve::QueryService service(system.get(), options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 30;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        if (r % 2 == 0) {
          const size_t qi = static_cast<size_t>(t + r) % hot.size();
          Result<serve::QueryResponse> got = service.Search(hot[qi]);
          if (!got.ok() ||
              Strings(got->result.nodes) != hot_expected[qi]) {
            ++bad;
          }
        } else {
          // Cold: distinct block_size values defeat the cache key, so the
          // query always dispatches (answers must be identical anyway).
          SearchOptions cold;
          cold.block_size = 1 + static_cast<size_t>(t * kRounds + r);
          Result<serve::QueryResponse> got =
              service.Search(hot[0], cold);
          if (!got.ok() ||
              Strings(got->result.nodes) != hot_expected[0]) {
            ++bad;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(service.metrics().cache_hits, 0u);
  const auto cache = service.cache_stats();
  EXPECT_GT(cache.misses, 0u);
  EXPECT_EQ(service.metrics().failed, 0u);
  EXPECT_EQ(service.metrics().rejected, 0u);
}

}  // namespace
}  // namespace xksearch
