#include "storage/buffer_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

// A store that fails reads on demand, for error-path coverage. Counters
// are atomic: the sharded pool issues reads from multiple threads.
class FlakyStore : public PageStore {
 public:
  Status ReadPage(PageId id, Page* out) override {
    reads.fetch_add(1, std::memory_order_relaxed);
    if (fail_reads.load(std::memory_order_relaxed)) {
      return Status::IoError("injected failure");
    }
    return mem.ReadPage(id, out);
  }
  Status WritePage(PageId id, const Page& page) override {
    return mem.WritePage(id, page);
  }
  Result<PageId> AllocatePage() override { return mem.AllocatePage(); }
  PageId page_count() const override { return mem.page_count(); }
  Status Sync() override { return Status::OK(); }

  MemPageStore mem;
  std::atomic<int> reads{0};
  std::atomic<bool> fail_reads{false};
};

Page Stamped(uint8_t v) {
  Page p;
  p.Zero();
  p.WriteU8(0, v);
  return p;
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint8_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(store_.AllocatePage().ok());
      XKS_ASSERT_OK(store_.WritePage(i, Stamped(i)));
    }
  }
  FlakyStore store_;
};

// The single-shard tests pin shards=1 so the global LRU order (and thus
// the exact hit/miss sequence) is deterministic, like the old pool.

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  {
    Result<PageRef> ref = pool.Fetch(3);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->page().ReadU8(0), 3);
  }
  EXPECT_EQ(pool.total_misses(), 1u);
  {
    Result<PageRef> ref = pool.Fetch(3);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool.total_misses(), 1u);
  EXPECT_EQ(pool.total_hits(), 1u);
  EXPECT_EQ(store_.reads, 1);
}

TEST_F(BufferPoolTest, LruEvictsColdestUnpinned) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(1); ASSERT_TRUE(r.ok()); }
  // Touch 0 so 1 is the LRU victim.
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(2); ASSERT_TRUE(r.ok()); }  // evicts 1
  EXPECT_EQ(pool.total_misses(), 3u);
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }  // still resident
  EXPECT_EQ(pool.total_misses(), 3u);
  { auto r = pool.Fetch(1); ASSERT_TRUE(r.ok()); }  // was evicted
  EXPECT_EQ(pool.total_misses(), 4u);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  Result<PageRef> pinned = pool.Fetch(0);
  ASSERT_TRUE(pinned.ok());
  { auto r = pool.Fetch(1); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(2); ASSERT_TRUE(r.ok()); }  // must evict 1, not 0
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.total_misses(), 3u);
  // The pinned page's bytes stayed valid throughout.
  EXPECT_EQ(pinned->page().ReadU8(0), 0);
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  Result<PageRef> a = pool.Fetch(0);
  Result<PageRef> b = pool.Fetch(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<PageRef> c = pool.Fetch(2);
  EXPECT_TRUE(c.status().IsInternal());
}

TEST_F(BufferPoolTest, StatsChargedPerFetch) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  QueryStats a;
  QueryStats b;
  { auto r = pool.Fetch(0, &a); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(0, &a); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(a.page_reads, 1u);
  EXPECT_EQ(a.page_hits, 1u);
  // A different query's stats are charged independently.
  { auto r = pool.Fetch(0, &b); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(b.page_reads, 0u);
  EXPECT_EQ(b.page_hits, 1u);
  // Fetches without a stats sink charge no one.
  { auto r = pool.Fetch(1); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(a.page_reads, 1u);
  EXPECT_EQ(b.page_reads, 0u);
}

TEST_F(BufferPoolTest, DropAllEmulatesColdCache) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.resident(), 1u);
  XKS_ASSERT_OK(pool.DropAll());
  EXPECT_EQ(pool.resident(), 0u);
  { auto r = pool.Fetch(0); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.total_misses(), 2u);
}

TEST_F(BufferPoolTest, DropAllRefusesWhilePinned) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  Result<PageRef> pinned = pool.Fetch(0);
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(pool.DropAll().IsInternal());
  pinned->Release();
  XKS_ASSERT_OK(pool.DropAll());
}

TEST_F(BufferPoolTest, WarmAllPrefetches) {
  BufferPool pool(&store_, 16, /*shards=*/1);
  XKS_ASSERT_OK(pool.WarmAll());
  EXPECT_EQ(pool.resident(), 8u);
  const uint64_t misses = pool.total_misses();
  { auto r = pool.Fetch(5); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.total_misses(), misses);  // hot
}

TEST_F(BufferPoolTest, WarmAllRespectsCapacity) {
  BufferPool pool(&store_, 3, /*shards=*/1);
  XKS_ASSERT_OK(pool.WarmAll());
  EXPECT_LE(pool.resident(), 3u);
}

TEST_F(BufferPoolTest, ReadFailurePropagates) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  store_.fail_reads = true;
  EXPECT_TRUE(pool.Fetch(0).status().IsIoError());
  store_.fail_reads = false;
  EXPECT_TRUE(pool.Fetch(0).ok());
}

TEST_F(BufferPoolTest, DirtyPagesReachStoreOnFlush) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  {
    Result<MutPageRef> ref = pool.FetchMut(2);
    ASSERT_TRUE(ref.ok());
    ref->page().WriteU8(0, 0xEE);
  }
  // Not yet in the store...
  Page raw;
  XKS_ASSERT_OK(store_.mem.ReadPage(2, &raw));
  EXPECT_EQ(raw.ReadU8(0), 2);
  XKS_ASSERT_OK(pool.FlushAll());
  XKS_ASSERT_OK(store_.mem.ReadPage(2, &raw));
  EXPECT_EQ(raw.ReadU8(0), 0xEE);
}

TEST_F(BufferPoolTest, DirtyPagesWrittenBackOnEviction) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  {
    Result<MutPageRef> ref = pool.FetchMut(0);
    ASSERT_TRUE(ref.ok());
    ref->page().WriteU8(0, 0xAA);
  }
  // Two more fetches force page 0 out.
  { auto r = pool.Fetch(1); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(2); ASSERT_TRUE(r.ok()); }
  Page raw;
  XKS_ASSERT_OK(store_.mem.ReadPage(0, &raw));
  EXPECT_EQ(raw.ReadU8(0), 0xAA);
  // Re-reading through the pool sees the written value.
  Result<PageRef> back = pool.Fetch(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->page().ReadU8(0), 0xAA);
}

TEST_F(BufferPoolTest, DropAllFlushesDirtyFrames) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  {
    Result<MutPageRef> ref = pool.FetchMut(5);
    ASSERT_TRUE(ref.ok());
    ref->page().WriteU8(0, 0x55);
  }
  XKS_ASSERT_OK(pool.DropAll());
  Page raw;
  XKS_ASSERT_OK(store_.mem.ReadPage(5, &raw));
  EXPECT_EQ(raw.ReadU8(0), 0x55);
}

TEST_F(BufferPoolTest, NewPageAllocatesZeroedAndCached) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  PageId fresh;
  {
    Result<MutPageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    fresh = ref->id();
    EXPECT_EQ(ref->page().ReadU8(0), 0);
    ref->page().WriteU8(0, 0x77);
  }
  EXPECT_EQ(fresh, 8u);  // after the 8 pre-allocated pages
  Result<PageRef> back = pool.Fetch(fresh);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->page().ReadU8(0), 0x77);
}

TEST_F(BufferPoolTest, MoveOnlyPageRefTransfersPin) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  Result<PageRef> a = pool.Fetch(0);
  ASSERT_TRUE(a.ok());
  PageRef moved = std::move(*a);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // Pin released exactly once: the pool can now be dropped.
  XKS_ASSERT_OK(pool.DropAll());
}

TEST_F(BufferPoolTest, ReadaheadChargesSeparatelyFromDemandMisses) {
  BufferPool pool(&store_, 4, /*shards=*/1);
  QueryStats stats;
  pool.Readahead(0, 3, &stats);
  EXPECT_EQ(stats.readahead_reads, 3u);
  EXPECT_EQ(pool.total_readaheads(), 3u);
  EXPECT_EQ(pool.resident(), 3u);
  // Speculative loads are not demand misses...
  EXPECT_EQ(stats.page_reads, 0u);
  EXPECT_EQ(pool.total_misses(), 0u);
  // ...and a later demand fetch of a readahead page is a hit.
  { auto r = pool.Fetch(1, &stats); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(stats.page_hits, 1u);
  EXPECT_EQ(stats.page_reads, 0u);
}

TEST_F(BufferPoolTest, ReadaheadEvictsUnpinnedButSkipsPinnedPages) {
  BufferPool pool(&store_, 2, /*shards=*/1);
  QueryStats stats;
  // Fill the pool with two pinned pages: readahead finds nothing
  // evictable and skips instead of erroring.
  Result<PageRef> pin0 = pool.Fetch(0);
  ASSERT_TRUE(pin0.ok());
  {
    Result<PageRef> pin1 = pool.Fetch(1);
    ASSERT_TRUE(pin1.ok());
    ASSERT_EQ(pool.resident(), 2u);
    pool.Readahead(2, 1, &stats);
    EXPECT_EQ(stats.readahead_reads, 0u);
    EXPECT_EQ(pool.resident(), 2u);
  }
  // Page 1 unpinned: a full pool now prefetches by evicting it, and
  // the pinned page is untouched.
  pool.Readahead(2, 1, &stats);
  EXPECT_EQ(stats.readahead_reads, 1u);
  EXPECT_EQ(pool.resident(), 2u);
  EXPECT_EQ(pin0->page().ReadU8(0), 0u);
  // The prefetched page is resident: a demand fetch of it is a hit.
  { auto r = pool.Fetch(2, &stats); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(stats.page_hits, 1u);
  EXPECT_EQ(stats.page_reads, 0u);
}

TEST_F(BufferPoolTest, ReadaheadClampsToStoreSize) {
  BufferPool pool(&store_, 16, /*shards=*/1);
  QueryStats stats;
  pool.Readahead(6, 100, &stats);  // store has 8 pages
  EXPECT_EQ(stats.readahead_reads, 2u);
  pool.Readahead(50, 4, &stats);  // wholly out of range: no-op
  EXPECT_EQ(stats.readahead_reads, 2u);
}

// --- Sharded / multi-threaded behaviour. The suite name contains
// "Concurrency" so the tsan preset's test filter runs these under tsan.

using BufferPoolConcurrencyTest = BufferPoolTest;

TEST_F(BufferPoolConcurrencyTest, ShardCountClampedToCapacity) {
  // More shards than frames: clamped so every shard owns >= 1 frame.
  BufferPool small(&store_, 2, 8);
  EXPECT_EQ(small.shards(), 2u);
  EXPECT_EQ(small.capacity(), 2u);
  // Capacity equal to the shard count: one frame per shard.
  BufferPool equal(&store_, 4, 4);
  EXPECT_EQ(equal.shards(), 4u);
  // Capacity larger than the shard count.
  BufferPool large(&store_, 16, 4);
  EXPECT_EQ(large.shards(), 4u);
  EXPECT_EQ(large.capacity(), 16u);
  // Auto (shards=0) picks at least one shard, never more than capacity.
  BufferPool tiny(&store_, 1);
  EXPECT_EQ(tiny.shards(), 1u);
  // Auto keeps >= 8 frames per shard so concurrent pins do not exhaust
  // a tiny shard, and tops out at 16 shards for big pools.
  BufferPool small_auto(&store_, 32);
  EXPECT_EQ(small_auto.shards(), 4u);
  BufferPool big_auto(&store_, 8192);
  EXPECT_EQ(big_auto.shards(), 16u);
}

TEST_F(BufferPoolConcurrencyTest, ConcurrentSamePageMissReadsOnce) {
  BufferPool pool(&store_, 8, 4);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<PageRef> ref = pool.Fetch(3);
      if (!ref.ok() || ref->page().ReadU8(0) != 3) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, 0);
  // The loading-frame protocol coalesces concurrent misses of one page
  // into a single store read.
  EXPECT_EQ(store_.reads, 1);
  EXPECT_EQ(pool.total_misses(), 1u);
  EXPECT_EQ(pool.total_hits(), static_cast<uint64_t>(kThreads - 1));
}

TEST_F(BufferPoolConcurrencyTest, ConcurrentReadersSeeCorrectBytes) {
  // Pool capacity (and shard count) chosen so shards see different
  // regimes: 3 frames across 3 shards, 8 distinct pages → constant
  // eviction on every shard.
  BufferPool pool(&store_, 3, 3);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const PageId id = static_cast<PageId>((t * 7 + i) % 8);
        QueryStats stats;
        Result<PageRef> ref = pool.Fetch(id, &stats);
        if (!ref.ok() || ref->page().ReadU8(0) != id) {
          failures.fetch_add(1);
          return;
        }
        if (stats.page_reads + stats.page_hits != 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, 0);
  // Every fetch was charged exactly once globally too.
  EXPECT_EQ(pool.total_hits() + pool.total_misses(),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  // All pins were released: the whole cache can be dropped.
  XKS_ASSERT_OK(pool.DropAll());
  EXPECT_EQ(pool.resident(), 0u);
}

TEST_F(BufferPoolConcurrencyTest, WarmAllSafeUnderConcurrentReaders) {
  BufferPool pool(&store_, 16, 4);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const PageId id = static_cast<PageId>((t + i++) % 8);
        Result<PageRef> ref = pool.Fetch(id);
        if (!ref.ok() || ref->page().ReadU8(0) != id) failures.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    XKS_ASSERT_OK(pool.WarmAll());
  }
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(pool.resident(), 8u);  // everything fits, all hot
  const uint64_t misses = pool.total_misses();
  { auto r = pool.Fetch(7); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(pool.total_misses(), misses);
}

TEST_F(BufferPoolConcurrencyTest, DropAllUnderConcurrentReaders) {
  BufferPool pool(&store_, 8, 4);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const PageId id = static_cast<PageId>((t * 3 + i++) % 8);
        Result<PageRef> ref = pool.Fetch(id);
        if (!ref.ok() || ref->page().ReadU8(0) != id) failures.fetch_add(1);
        // The ref drops here, so pins are transient: DropAll may land in
        // a pinned window (Internal) or a gap (OK); both are valid.
      }
    });
  }
  int dropped = 0;
  for (int round = 0; round < 200; ++round) {
    const Status st = pool.DropAll();
    if (st.ok()) {
      ++dropped;
    } else {
      ASSERT_TRUE(st.IsInternal()) << st.ToString();
    }
  }
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures, 0);
  // With no readers left every drop must succeed and empty the pool.
  XKS_ASSERT_OK(pool.DropAll());
  EXPECT_EQ(pool.resident(), 0u);
}

TEST_F(BufferPoolConcurrencyTest, DropAllFailsWithPinnedPageThenRecovers) {
  BufferPool pool(&store_, 4, 4);
  Result<PageRef> pinned = pool.Fetch(2);
  ASSERT_TRUE(pinned.ok());
  std::thread dropper([&] {
    // From another thread, the pinned page must still block the drop.
    EXPECT_TRUE(pool.DropAll().IsInternal());
  });
  dropper.join();
  pinned->Release();
  XKS_ASSERT_OK(pool.DropAll());
  EXPECT_EQ(pool.resident(), 0u);
}

TEST_F(BufferPoolConcurrencyTest, ConcurrentReadaheadAndFetches) {
  BufferPool pool(&store_, 6, 3);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (t % 2 == 0) {
          QueryStats stats;
          pool.Readahead(static_cast<PageId>(i % 8), 3, &stats);
        } else {
          const PageId id = static_cast<PageId>((t + i) % 8);
          Result<PageRef> ref = pool.Fetch(id);
          if (!ref.ok() || ref->page().ReadU8(0) != id) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, 0);
  XKS_ASSERT_OK(pool.DropAll());
}

}  // namespace
}  // namespace xksearch
