// Heap-allocation regression test for the SLCA match loop.
//
// A counting global operator new sees every allocation the process makes.
// Each case runs the same query shape at two S1 sizes with the same
// number of lists and results: only the number of match steps differs. A
// match step (Indexed Lookup lm/rm probe or Scan Eager cursor step, plus
// the in-place chain truncation) must allocate nothing, so the two runs
// must allocate (almost) the same number of times, however many more
// match operations the larger one performs. Lists are vectors, packed
// lists, or a warm in-memory disk index. A last case sends a request
// through QueryService over an in-memory engine, which must probe the
// packed lists in place rather than decode them. The result cache is
// checked the same way: inserting a longer answer costs no more
// allocations, and a hit allocates only its two vectors, plus one block
// per returned id too deep to be held inline.

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <string>
#include <tuple>
#include <vector>

#include "dewey/packed_list.h"
#include "engine/xksearch.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "serve/query_cache.h"
#include "serve/query_service.h"
#include "serve/thread_pool.h"
#include "slca/keyword_list.h"
#include "slca/packed_list.h"
#include "slca/parallel.h"
#include "slca/slca.h"
#include "storage/disk_index.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every pair of new and delete goes through malloc and free even
// where a sanitizer runtime supplies its own defaults.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xksearch {
namespace {

// Every S1 size runs with this many groups; each group yields one SLCA.
constexpr uint32_t kGroups = 8;
constexpr size_t kSmallS1 = 1024;
constexpr size_t kLargeS1 = 8192;
// Allocations the larger run may add beyond the smaller one: arena and
// buffer capacity that grows once per list, never once per step.
constexpr uint64_t kSlack = 16;

enum class Layout { kVector, kPacked, kDisk };

// Three lists over kGroups subtrees 0.g: S1 holds n/kGroups leaves
// 0.g.i.1 per group, S2 and S3 one leaf each under 0.g.0. Every S1 node
// costs one match step per other list; the SLCAs are the kGroups nodes
// 0.g.0 whatever n is. `deep` moves every subtree under a chain of
// kDeepPad extra components, so every posting and every SLCA is deeper
// than DeweyId::kInlineCapacity and lives in a heap block.
constexpr size_t kDeepPad = DeweyId::kInlineCapacity - 2;

std::vector<std::vector<DeweyId>> MakeLists(size_t s1_size, bool deep) {
  std::vector<std::vector<DeweyId>> lists(3);
  const std::vector<uint32_t> pad(deep ? kDeepPad : 0, 5);
  auto id = [&pad](std::initializer_list<uint32_t> tail) {
    std::vector<uint32_t> c = {0};
    c.insert(c.end(), pad.begin(), pad.end());
    c.insert(c.end(), tail.begin(), tail.end());
    return DeweyId(std::span<const uint32_t>(c));
  };
  const uint32_t per_group = static_cast<uint32_t>(s1_size / kGroups);
  for (uint32_t g = 0; g < kGroups; ++g) {
    for (uint32_t i = 0; i < per_group; ++i) {
      lists[0].push_back(id({g, i, 1}));
    }
    lists[1].push_back(id({g, 0, 2}));
    lists[2].push_back(id({g, 0, 3}));
  }
  if (deep) {
    EXPECT_GT(lists[0][0].depth(), DeweyId::kInlineCapacity);
  }
  return lists;
}

struct RunResult {
  uint64_t allocations = 0;
  uint64_t match_ops = 0;
  uint64_t results = 0;
};

using MatchCase = std::tuple<SlcaAlgorithm, Layout, bool, bool>;

class MatchAllocationTest : public ::testing::TestWithParam<MatchCase> {
 protected:
  SlcaAlgorithm algorithm() const { return std::get<0>(GetParam()); }
  Layout layout() const { return std::get<1>(GetParam()); }
  bool chunked() const { return std::get<2>(GetParam()); }
  bool deep() const { return std::get<3>(GetParam()); }

  // Builds the lists outside the counted region, then counts the
  // allocations of one ComputeSlca (or chunked ComputeSlcaParallel) call.
  RunResult Run(size_t s1_size, serve::ThreadPool* pool) {
    const std::vector<std::vector<DeweyId>> ids = MakeLists(s1_size, deep());
    std::vector<PackedDeweyList> packed(ids.size());
    std::unique_ptr<DiskIndex> disk;
    if (layout() == Layout::kDisk) {
      InvertedIndex source;
      for (size_t i = 0; i < ids.size(); ++i) {
        for (const DeweyId& id : ids[i]) {
          source.AddPosting("k" + std::to_string(i), id);
        }
      }
      DiskIndexOptions options;
      options.in_memory = true;
      Result<std::unique_ptr<DiskIndex>> built =
          DiskIndex::Build(source, "", options);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      if (!built.ok()) return {};
      disk = std::move(built).ValueOrDie();
      EXPECT_TRUE(disk->WarmCaches().ok());
    }
    QueryStats stats;
    std::vector<std::unique_ptr<KeywordList>> owned;
    std::vector<KeywordList*> lists;
    for (size_t i = 0; i < ids.size(); ++i) {
      switch (layout()) {
        case Layout::kVector:
          owned.push_back(
              std::make_unique<VectorKeywordList>(&ids[i], &stats));
          break;
        case Layout::kPacked:
          for (const DeweyId& id : ids[i]) packed[i].Append(id);
          owned.push_back(
              std::make_unique<PackedKeywordList>(&packed[i], &stats));
          break;
        case Layout::kDisk: {
          const DiskIndex::TermInfo* term =
              disk->FindTerm("k" + std::to_string(i));
          owned.push_back(std::make_unique<DiskKeywordList>(
              disk.get(), term->id, term->frequency, &stats));
          break;
        }
      }
      lists.push_back(owned.back().get());
    }
    ParallelExecOptions exec;
    exec.pool = pool;
    exec.max_chunks = 4;
    exec.min_chunk_elements = 64;

    RunResult run;
    const ResultCallback emit = [&run](const DeweyId&) { ++run.results; };
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const Status status =
        chunked() ? ComputeSlcaParallel(algorithm(), lists, {}, exec, &stats,
                                        emit)
                  : ComputeSlca(algorithm(), lists, {}, &stats, emit);
    run.allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(status.ok()) << status.ToString();
    run.match_ops = stats.match_ops;
    return run;
  }
};

TEST_P(MatchAllocationTest, AllocationsDoNotGrowWithMatchOps) {
  serve::ThreadPool::Options pool_options;
  pool_options.workers = 2;
  serve::ThreadPool pool(pool_options);
  serve::ThreadPool* chunk_pool = chunked() ? &pool : nullptr;

  Run(kSmallS1, chunk_pool);  // first-use initialization stays out
  const RunResult small = Run(kSmallS1, chunk_pool);
  const RunResult large = Run(kLargeS1, chunk_pool);

  EXPECT_EQ(small.results, kGroups);
  EXPECT_EQ(large.results, kGroups);
  // Two match operations per S1 node and other list.
  EXPECT_EQ(small.match_ops, 2 * 2 * kSmallS1);
  EXPECT_EQ(large.match_ops, 2 * 2 * kLargeS1);
  EXPECT_LE(large.allocations, small.allocations + kSlack)
      << "small run: " << small.allocations << " allocations for "
      << small.match_ops << " match ops; large run: " << large.allocations
      << " for " << large.match_ops;
}

std::string CaseName(const ::testing::TestParamInfo<MatchCase>& info) {
  std::string name = ToString(std::get<0>(info.param));
  switch (std::get<1>(info.param)) {
    case Layout::kVector:
      name += "Vector";
      break;
    case Layout::kPacked:
      name += "Packed";
      break;
    case Layout::kDisk:
      name += "Disk";
      break;
  }
  name += std::get<2>(info.param) ? "Chunked" : "Sequential";
  if (std::get<3>(info.param)) name += "Deep";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    EagerAlgorithms, MatchAllocationTest,
    ::testing::Combine(::testing::Values(SlcaAlgorithm::kIndexedLookupEager,
                                         SlcaAlgorithm::kScanEager),
                       ::testing::Values(Layout::kVector, Layout::kPacked),
                       ::testing::Bool(), ::testing::Values(false)),
    CaseName);

// Sequential only on disk: chunk planning reads one key per scan block
// of S1 (ScanBlockRefs), which grows with the list, as it should. The
// deep cases hold every probe target and answer in heap blocks, so any
// probe state that copied one per step would show here.
INSTANTIATE_TEST_SUITE_P(
    WarmDiskIndex, MatchAllocationTest,
    ::testing::Combine(::testing::Values(SlcaAlgorithm::kIndexedLookupEager,
                                         SlcaAlgorithm::kScanEager),
                       ::testing::Values(Layout::kDisk),
                       ::testing::Values(false), ::testing::Bool()),
    CaseName);

// One <g> subtree per group: `alpha_size / kGroups` <s>alpha</s> leaves
// beside one <a><b>bravo</b><c>carol</c></a>, so {alpha, bravo, carol}
// has one SLCA per group however long the alpha list is.
std::string MakeGroupedXml(size_t alpha_size) {
  std::string xml = "<r>";
  for (uint32_t g = 0; g < kGroups; ++g) {
    xml += "<g><a><b>bravo</b><c>carol</c></a>";
    for (size_t i = 0; i < alpha_size / kGroups; ++i) xml += "<s>alpha</s>";
    xml += "</g>";
  }
  return xml + "</r>";
}

// Allocations of one result-cache-miss request through QueryService. The
// service runs as the serving benchmark configures it, hot_list_bytes
// included; the counted request is the second sighting of its lists,
// the one where a decoded-list cache would admit and decode them.
uint64_t ServedRequestAllocations(size_t alpha_size) {
  Result<std::unique_ptr<XKSearch>> engine =
      XKSearch::BuildFromXml(MakeGroupedXml(alpha_size));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return 0;
  serve::QueryServiceOptions options;
  options.pool.workers = 1;
  options.enable_cache = false;
  options.hot_list_bytes = 2u << 20;
  serve::QueryService service(engine->get(), options);
  const std::vector<std::string> query = {"alpha", "bravo", "carol"};

  EXPECT_TRUE(service.Search(query).ok());  // first sighting, first use
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Result<serve::QueryResponse> response = service.Search(query);
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (response.ok()) {
    EXPECT_FALSE(response->cache_hit);
    EXPECT_EQ(response->result.nodes.size(), kGroups);
  }
  return allocations;
}

TEST(ServedMatchAllocationTest, CacheMissRequestProbesPackedListsInPlace) {
  const uint64_t small = ServedRequestAllocations(kSmallS1);
  const uint64_t large = ServedRequestAllocations(kLargeS1);
  EXPECT_LE(large, small + kSlack)
      << "request over a " << kSmallS1 << "-entry list: " << small
      << " allocations; over a " << kLargeS1 << "-entry list: " << large;
}

// A result-cache answer of n nodes over a few levels, so its delta
// stream has shared prefixes and multi-byte components.
// `n` answer ids of `depth` components each (depth >= 4), distinct and
// in document order.
SearchResult MakeAnswer(size_t n, size_t depth) {
  SearchResult answer;
  answer.algorithm = SlcaAlgorithm::kScanEager;
  answer.keywords = {"alpha", "bravo"};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = static_cast<uint32_t>(i);
    DeweyId id({0, k / 64, k % 64});
    while (id.depth() + 1 < depth) id.Append(1);
    id.Append(1000 + k);
    answer.nodes.push_back(std::move(id));
  }
  return answer;
}

struct CacheAllocations {
  uint64_t insert = 0;
  uint64_t hit = 0;
};

// Allocations of one QueryCache::Insert and of one warm hit (the thread's
// copy and decode buffers already grown by an earlier hit).
CacheAllocations CountCacheAllocations(size_t n, size_t depth) {
  serve::QueryCache::Options options;
  options.shards = 1;
  options.capacity_bytes = 64u << 20;
  serve::QueryCache cache(options);
  const serve::QueryCacheKey key({"alpha", "bravo"}, SearchOptions());
  const SearchResult answer = MakeAnswer(n, depth);
  CacheAllocations counted;

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  cache.Insert(key, answer);
  counted.insert = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(cache.GetStats().entries, 1u);

  EXPECT_TRUE(cache.Lookup(key).has_value());
  before = g_allocations.load(std::memory_order_relaxed);
  const std::optional<SearchResult> hit = cache.Lookup(key);
  counted.hit = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(hit.has_value());
  if (hit.has_value()) {
    EXPECT_EQ(hit->nodes, answer.nodes);
  }
  return counted;
}

constexpr size_t kShallow = 4;
constexpr size_t kDeep = DeweyId::kInlineCapacity + 1;

TEST(ResultCacheAllocationTest, InsertEncodesOnceAndHitAllocatesOnlyTheIds) {
  const CacheAllocations small = CountCacheAllocations(kSmallS1, kShallow);
  const CacheAllocations large = CountCacheAllocations(kLargeS1, kShallow);
  // Insert: the entry's byte string, list node and map node, whatever
  // the answer's size.
  EXPECT_NEAR(static_cast<double>(small.insert),
              static_cast<double>(large.insert), 4)
      << kSmallS1 << "-node answer: " << small.insert << " allocations; "
      << kLargeS1 << "-node answer: " << large.insert;
  // Hit: the node and keyword vectors only; ids within the inline
  // capacity are decoded into the node vector without a heap block.
  EXPECT_EQ(small.hit, 2u);
  EXPECT_EQ(large.hit, 2u);
}

TEST(ResultCacheAllocationTest, HitAllocatesOneBlockPerIdDeeperThanInline) {
  const CacheAllocations small = CountCacheAllocations(kSmallS1, kDeep);
  const CacheAllocations large = CountCacheAllocations(kLargeS1, kDeep);
  EXPECT_NEAR(static_cast<double>(small.insert),
              static_cast<double>(large.insert), 4);
  // Hit: the node and keyword vectors, plus one block per deep id.
  EXPECT_EQ(small.hit, kSmallS1 + 2);
  EXPECT_EQ(large.hit, kLargeS1 + 2);
}

}  // namespace
}  // namespace xksearch
