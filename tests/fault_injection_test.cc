// Fault-injection coverage: the FaultInjectingPageStore schedule API
// itself, then every consumer above it — buffer pool (including the
// coalesced-load waiter protocol), B+tree cursors, DiskIndex match ops,
// DiskSearcher queries and the serving layer's io_error accounting.

#include "storage/fault_injection.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "gtest/gtest.h"
#include "serve/query_service.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_index.h"
#include "test_util.h"

namespace xksearch {
namespace {

// ---------------------------------------------------------------------
// Schedule API on a bare store.
// ---------------------------------------------------------------------

class FaultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      XKS_ASSERT_OK(mem_.AllocatePage().status());
    }
  }
  MemPageStore mem_;
};

TEST_F(FaultStoreTest, DisarmedScheduleIsPassThrough) {
  FaultInjectingPageStore store(&mem_);
  store.FailNthRead(1);
  Page page;
  XKS_EXPECT_OK(store.ReadPage(0, &page));
  EXPECT_EQ(store.reads(), 1u);
  EXPECT_EQ(store.injected_errors(), 0u);
}

TEST_F(FaultStoreTest, FailNthReadFiresExactlyOnce) {
  FaultInjectingPageStore store(&mem_);
  store.FailNthRead(3);
  store.Arm();
  Page page;
  XKS_EXPECT_OK(store.ReadPage(0, &page));
  XKS_EXPECT_OK(store.ReadPage(1, &page));
  const Status third = store.ReadPage(2, &page);
  EXPECT_TRUE(third.IsIoError()) << third.ToString();
  // Transient: the schedule exhausted, so the retry succeeds.
  XKS_EXPECT_OK(store.ReadPage(2, &page));
  EXPECT_EQ(store.injected_errors(), 1u);
}

TEST_F(FaultStoreTest, FailPageReadsMatchesOnlyThatPage) {
  FaultInjectingPageStore store(&mem_);
  store.FailPageReads(5, /*times=*/FaultRule::kForever);
  store.Arm();
  Page page;
  XKS_EXPECT_OK(store.ReadPage(4, &page));
  EXPECT_TRUE(store.ReadPage(5, &page).IsIoError());
  EXPECT_TRUE(store.ReadPage(5, &page).IsIoError());  // forever
  XKS_EXPECT_OK(store.ReadPage(6, &page));
}

TEST_F(FaultStoreTest, ProbabilisticFaultsAreSeedDeterministic) {
  auto run = [this](uint64_t seed) {
    FaultInjectingPageStore store(&mem_, seed);
    store.FailReadsWithProbability(0.5, FaultRule::kForever);
    store.Arm();
    std::vector<bool> outcomes;
    Page page;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(store.ReadPage(i % 8, &page).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // astronomically unlikely to collide
}

TEST_F(FaultStoreTest, TornWriteLeavesHalfThePage) {
  FaultInjectingPageStore store(&mem_);
  Page full;
  for (size_t i = 0; i < kPageSize; ++i) full.data[i] = 0xAB;
  store.TornWriteOnPage(2);
  store.Arm();
  const Status torn = store.WritePage(2, full);
  EXPECT_TRUE(torn.IsIoError()) << torn.ToString();
  Page after;
  XKS_ASSERT_OK(store.ReadPage(2, &after));
  EXPECT_EQ(after.data[0], 0xAB);                  // first half landed
  EXPECT_EQ(after.data[kPageSize / 2 - 1], 0xAB);
  EXPECT_EQ(after.data[kPageSize / 2], 0x00);      // second half did not
  EXPECT_EQ(after.data[kPageSize - 1], 0x00);
}

TEST_F(FaultStoreTest, TransientThenRecoverViaFireLimit) {
  FaultInjectingPageStore store(&mem_);
  store.FailPageReads(1, /*times=*/2);
  store.Arm();
  Page page;
  EXPECT_TRUE(store.ReadPage(1, &page).IsIoError());
  EXPECT_TRUE(store.ReadPage(1, &page).IsIoError());
  XKS_EXPECT_OK(store.ReadPage(1, &page));  // recovered
}

TEST_F(FaultStoreTest, LatencyRuleDelaysButSucceeds) {
  FaultInjectingPageStore store(&mem_);
  store.AddReadLatency(std::chrono::microseconds(2000));
  store.Arm();
  Page page;
  const auto start = std::chrono::steady_clock::now();
  XKS_EXPECT_OK(store.ReadPage(0, &page));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(1500));
  EXPECT_EQ(store.injected_errors(), 0u);
}

TEST_F(FaultStoreTest, FailNthSyncFiresAndCountsInInjectedStats) {
  FaultInjectingPageStore store(&mem_);
  store.FailNthSync(1);
  store.Arm();
  const Status failed = store.Sync();
  EXPECT_TRUE(failed.IsIoError()) << failed.ToString();
  EXPECT_EQ(store.injected_errors(), 1u);
  EXPECT_EQ(store.syncs(), 1u);
  // Transient: the retry reaches the inner store.
  XKS_EXPECT_OK(store.Sync());
  EXPECT_EQ(store.syncs(), 2u);
  EXPECT_EQ(store.injected_errors(), 1u);
}

TEST_F(FaultStoreTest, SimulateCrashDropsUnsyncedWritesOnly) {
  FaultInjectingPageStore store(&mem_);
  // Attaching a schedule (even one with no kill point) starts the
  // unsynced-write tracking SimulateCrash rolls back with.
  store.SetCrashSchedule(std::make_shared<CrashSchedule>());
  Page page;
  page.Zero();
  for (size_t i = 0; i < kPageSize; ++i) page.data[i] = 0xAA;
  XKS_ASSERT_OK(store.WritePage(0, page));
  XKS_ASSERT_OK(store.Sync());  // page 0 is now durable
  for (size_t i = 0; i < kPageSize; ++i) page.data[i] = 0xBB;
  XKS_ASSERT_OK(store.WritePage(1, page));       // unsynced overwrite
  Result<PageId> grown = store.AllocatePage();   // unsynced growth
  XKS_ASSERT_OK(grown.status());
  XKS_ASSERT_OK(store.WritePage(*grown, page));

  store.SimulateCrash();
  EXPECT_TRUE(store.crashed());
  // The dead store fails everything...
  EXPECT_TRUE(store.ReadPage(0, &page).IsIoError());
  EXPECT_TRUE(store.WritePage(0, page).IsIoError());
  EXPECT_TRUE(store.Sync().IsIoError());
  // ...and the inner store kept exactly the synced state: page 0's
  // bytes, page 1 rolled back to zeros, the allocation truncated away.
  EXPECT_EQ(mem_.page_count(), 8u);
  XKS_ASSERT_OK(mem_.ReadPage(0, &page));
  EXPECT_EQ(page.data[0], 0xAA);
  EXPECT_EQ(page.data[kPageSize - 1], 0xAA);
  XKS_ASSERT_OK(mem_.ReadPage(1, &page));
  EXPECT_EQ(page.data[0], 0x00);
  EXPECT_EQ(page.data[kPageSize - 1], 0x00);
}

TEST_F(FaultStoreTest, CrashScheduleSharedClockKillsEveryStore) {
  // One schedule, two stores = one simulated process over two files.
  MemPageStore other;
  for (int i = 0; i < 4; ++i) XKS_ASSERT_OK(other.AllocatePage().status());
  FaultInjectingPageStore store_a(&mem_);
  FaultInjectingPageStore store_b(&other);
  auto schedule = std::make_shared<CrashSchedule>();
  store_a.SetCrashSchedule(schedule);
  store_b.SetCrashSchedule(schedule);
  schedule->CrashAtOperation(3);

  Page page;
  page.Zero();
  XKS_ASSERT_OK(store_a.WritePage(0, page));  // op 1
  XKS_ASSERT_OK(store_b.WritePage(0, page));  // op 2
  const Status fatal = store_a.WritePage(1, page);  // op 3: the kill point
  EXPECT_TRUE(fatal.IsIoError()) << fatal.ToString();
  EXPECT_TRUE(schedule->crashed());
  EXPECT_EQ(schedule->operations(), 3u);
  // The OTHER store died with the process, not just the triggering one.
  EXPECT_TRUE(store_a.crashed());
  EXPECT_TRUE(store_b.crashed());
  EXPECT_TRUE(store_b.WritePage(1, page).IsIoError());
}

TEST_F(FaultStoreTest, CrashClockTicksDurableOperationsNotReads) {
  FaultInjectingPageStore store(&mem_);
  auto schedule = std::make_shared<CrashSchedule>();
  store.SetCrashSchedule(schedule);
  Page page;
  XKS_ASSERT_OK(store.ReadPage(0, &page));
  XKS_ASSERT_OK(store.ReadPage(1, &page));
  EXPECT_EQ(schedule->operations(), 0u);  // reads are not durable ops
  page.Zero();
  XKS_ASSERT_OK(store.WritePage(0, page));
  XKS_ASSERT_OK(store.AllocatePage().status());
  XKS_ASSERT_OK(store.Truncate(8));
  XKS_ASSERT_OK(store.Sync());
  EXPECT_EQ(schedule->operations(), 4u);  // write + alloc + truncate + sync
  EXPECT_EQ(schedule->syncs(), 1u);
}

TEST_F(FaultStoreTest, CrashOnSyncBarrierKeepsPriorBarrierState) {
  FaultInjectingPageStore store(&mem_);
  auto schedule = std::make_shared<CrashSchedule>();
  store.SetCrashSchedule(schedule);
  schedule->CrashAtSync(2);
  Page page;
  page.Zero();
  for (size_t i = 0; i < kPageSize; ++i) page.data[i] = 0x11;
  XKS_ASSERT_OK(store.WritePage(0, page));
  XKS_ASSERT_OK(store.Sync());  // barrier 1 completes
  for (size_t i = 0; i < kPageSize; ++i) page.data[i] = 0x22;
  XKS_ASSERT_OK(store.WritePage(0, page));
  // Dying ON the barrier: the fsync does not complete, so the write it
  // was meant to make durable is lost.
  EXPECT_TRUE(store.Sync().IsIoError());
  EXPECT_TRUE(store.crashed());
  XKS_ASSERT_OK(mem_.ReadPage(0, &page));
  EXPECT_EQ(page.data[0], 0x11);
}

// ---------------------------------------------------------------------
// Buffer pool under faults.
// ---------------------------------------------------------------------

class FaultPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      XKS_ASSERT_OK(mem_.AllocatePage().status());
    }
    store_ = std::make_unique<FaultInjectingPageStore>(&mem_);
  }
  MemPageStore mem_;
  std::unique_ptr<FaultInjectingPageStore> store_;
};

TEST_F(FaultPoolTest, FailedMissPropagatesAndLeavesNoResidue) {
  BufferPool pool(store_.get(), 4, /*shards=*/1);
  store_->FailPageReads(3, /*times=*/1);
  store_->Arm();
  const Result<PageRef> ref = pool.Fetch(3);
  EXPECT_TRUE(ref.status().IsIoError()) << ref.status().ToString();
  // No loading placeholder, no pinned frame, nothing resident.
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(pool.DebugTotalPins(), 0u);
  // The fault was transient, so the next fetch succeeds.
  XKS_EXPECT_OK(pool.Fetch(3).status());
}

// The satellite invariant: a failed coalesced load must wake every
// waiter with the loader's error — not leave them to re-issue the read.
// Latency injection holds the loading read open long enough for the
// waiters to pile onto the placeholder frame.
TEST_F(FaultPoolTest, FailedCoalescedLoadWakesAllWaitersWithError) {
  BufferPool pool(store_.get(), 4, /*shards=*/1);
  store_->AddReadLatency(std::chrono::microseconds(100'000));
  store_->FailPageReads(2, /*times=*/1);
  store_->Arm();

  // All threads rendezvous before fetching: the read latency then dwarfs
  // the time it takes the losers to reach PinFrame, so every thread joins
  // the single coalesced load (thread *startup* alone is not fast enough
  // under TSan).
  constexpr int kWaiters = 6;
  std::atomic<int> ready{0};
  std::vector<Status> results(kWaiters);
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&pool, &results, &ready, i] {
      ready.fetch_add(1);
      while (ready.load() < kWaiters) std::this_thread::yield();
      results[i] = pool.Fetch(2).status();
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one store read happened (everyone coalesced onto it), and
  // every thread saw the injected error.
  EXPECT_EQ(store_->reads(), 1u);
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_TRUE(results[i].IsIoError()) << "waiter " << i << ": "
                                        << results[i].ToString();
  }
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(pool.DebugTotalPins(), 0u);
  // Pool still serves once the fault has passed.
  store_->Disarm();
  XKS_EXPECT_OK(pool.Fetch(2).status());
}

TEST_F(FaultPoolTest, EvictionWriteBackFailurePropagates) {
  BufferPool pool(store_.get(), 1, /*shards=*/1);
  {
    Result<MutPageRef> mut = pool.FetchMut(0);
    XKS_ASSERT_OK(mut.status());
    mut->page().Zero();
  }
  store_->FailNthWrite(1);
  store_->Arm();
  // Fetching another page must evict the dirty frame; its write-back
  // fails and the fetch reports it rather than dropping the bytes.
  const Result<PageRef> ref = pool.Fetch(1);
  EXPECT_TRUE(ref.status().IsIoError()) << ref.status().ToString();
  EXPECT_EQ(pool.DebugTotalPins(), 0u);
  store_->Disarm();
  XKS_EXPECT_OK(pool.Fetch(1).status());
}

// ---------------------------------------------------------------------
// B+tree cursors over a faulty pool.
// ---------------------------------------------------------------------

TEST(FaultBptreeTest, CursorSurfacesReadErrorsCleanly) {
  MemPageStore mem;
  {
    BPlusTreeBuilder builder(&mem);
    // Enough entries for a multi-page tree.
    for (int i = 0; i < 2000; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      XKS_ASSERT_OK(builder.Add(key, "value"));
    }
    XKS_ASSERT_OK(builder.Finish());
  }
  FaultInjectingPageStore store(&mem);
  BufferPool pool(&store, 4, /*shards=*/1);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  XKS_ASSERT_OK(tree.status());

  store.FailReadsWithProbability(1.0, FaultRule::kForever);
  store.Arm();
  BPlusTree::Cursor cursor = tree->NewCursor();
  Status st = cursor.SeekToFirst();
  if (st.ok()) {
    // Everything needed was cached; advancing off it must fail instead.
    while (st.ok() && cursor.Valid()) st = cursor.Next();
  }
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  store.Disarm();
  EXPECT_EQ(pool.DebugTotalPins(), 0u);

  // Clean recovery: a fresh cursor walks the whole tree.
  BPlusTree::Cursor again = tree->NewCursor();
  XKS_ASSERT_OK(again.SeekToFirst());
  size_t n = 0;
  while (again.Valid()) {
    ++n;
    XKS_ASSERT_OK(again.Next());
  }
  EXPECT_EQ(n, 2000u);
}

// ---------------------------------------------------------------------
// DiskIndex / DiskSearcher / serve layer end to end.
// ---------------------------------------------------------------------

constexpr char kXml[] =
    "<dblp>"
    "  <article><title>keyword search in xml</title>"
    "    <author>jagadish</author></article>"
    "  <article><title>xml storage engines</title>"
    "    <author>widom</author></article>"
    "  <article><title>search engines</title>"
    "    <author>ullman</author></article>"
    "</dblp>";

struct FaultyEngine {
  std::unique_ptr<DiskSearcher> engine;
  std::vector<FaultInjectingPageStore*> wrappers;

  void Arm() {
    for (auto* w : wrappers) w->Arm();
  }
  void Disarm() {
    for (auto* w : wrappers) {
      w->Disarm();
      w->ClearFaults();
    }
  }
  uint64_t TotalPins() {
    return engine->index()->scan_pool()->DebugTotalPins();
  }
};

// Out-param (not a return value) because ASSERT_* requires a void
// function.
void BuildFaultyEngine(FaultyEngine* fe) {
  Result<std::unique_ptr<XKSearch>> system = XKSearch::BuildFromXml(kXml);
  XKS_ASSERT_OK(system.status());
  DiskIndexOptions disk;
  disk.in_memory = true;
  // A tiny single-shard pool: every query touches the store.
  disk.scan_pool_pages = 4;
  disk.pool_shards = 1;
  disk.store_decorator = [fe](std::unique_ptr<PageStore> inner,
                              std::string_view /*name*/) {
    auto wrapped =
        std::make_unique<FaultInjectingPageStore>(std::move(inner));
    fe->wrappers.push_back(wrapped.get());
    return std::unique_ptr<PageStore>(std::move(wrapped));
  };
  Result<std::unique_ptr<DiskSearcher>> built =
      DiskSearcher::Build(**system, "", disk);
  XKS_ASSERT_OK(built.status());
  fe->engine = built.MoveValueUnsafe();
}

TEST(FaultDiskIndexTest, QueriesFailCleanlyAndRecover) {
  FaultyEngine fe;
  BuildFaultyEngine(&fe);
  const std::vector<std::string> query = {"xml", "search"};
  const SearchOptions disk;

  // Baseline answer, fault-free.
  Result<SearchResult> expected = fe.engine->Search(query, disk);
  XKS_ASSERT_OK(expected.status());
  ASSERT_FALSE(expected->nodes.empty());

  // Cold caches, or the tiny index would be served from the pool and
  // the armed schedule would never see a read.
  XKS_ASSERT_OK(fe.engine->index()->DropCaches());
  fe.Arm();
  // Every algorithm must fail with the injected error, pin-clean.
  for (AlgorithmChoice algorithm :
       {AlgorithmChoice::kIndexedLookupEager, AlgorithmChoice::kScanEager,
        AlgorithmChoice::kStack}) {
    for (auto* w : fe.wrappers) {
      w->ClearFaults();
      w->FailReadsWithProbability(1.0, FaultRule::kForever);
    }
    SearchOptions so = disk;
    so.algorithm = algorithm;
    const Result<SearchResult> got = fe.engine->Search(query, so);
    EXPECT_TRUE(got.status().IsIoError()) << got.status().ToString();
    EXPECT_EQ(fe.TotalPins(), 0u);
  }
  fe.Disarm();

  Result<SearchResult> after = fe.engine->Search(query, disk);
  XKS_ASSERT_OK(after.status());
  EXPECT_EQ(after->nodes, expected->nodes);
}

TEST(FaultServeTest, InjectedIoErrorCountsAndServiceRecovers) {
  FaultyEngine fe;
  BuildFaultyEngine(&fe);
  serve::QueryServiceOptions options;
  options.enable_cache = false;  // every submit hits the engine
  options.pool.workers = 2;
  serve::QueryService service(fe.engine.get(), options);

  const SearchOptions disk;
  const std::vector<std::string> query = {"xml", "search"};

  for (auto* w : fe.wrappers) {
    w->FailReadsWithProbability(1.0, FaultRule::kForever);
  }
  fe.Arm();
  Result<serve::QueryResponse> failed = service.Search(query, disk);
  EXPECT_TRUE(failed.status().IsIoError()) << failed.status().ToString();
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().failed), 1u);
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().io_errors), 1u);
  EXPECT_EQ(fe.TotalPins(), 0u);

  // Disk recovered: the very next request succeeds and counts normally.
  fe.Disarm();
  Result<serve::QueryResponse> ok = service.Search(query, disk);
  XKS_ASSERT_OK(ok.status());
  EXPECT_FALSE(ok->result.nodes.empty());
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().completed), 1u);
  EXPECT_EQ(static_cast<uint64_t>(service.metrics().io_errors), 1u);
  // The io_error line is part of the operator-facing report.
  EXPECT_NE(service.MetricsReport().find("io_errors"), std::string::npos);
}

}  // namespace
}  // namespace xksearch
