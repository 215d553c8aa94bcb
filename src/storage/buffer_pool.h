#ifndef XKSEARCH_STORAGE_BUFFER_POOL_H_
#define XKSEARCH_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace xksearch {

class BufferPool;

namespace internal {

/// Outcome slot of one in-flight page read, shared between the loading
/// thread and every fetch that coalesced onto it. Guarded by the shard
/// mutex. Waiters keep a shared_ptr so a failed load — which erases its
/// placeholder frame — still delivers the error to everyone who waited
/// on it instead of leaving them to rediscover (or mask) the fault.
struct LoadState {
  bool done = false;
  Status status;
};

/// One cached page frame. Owned by a pool shard; the pin count is atomic
/// so releasing a pin (the hottest concurrent operation) is a single
/// lock-free decrement. All other fields are guarded by the shard mutex.
struct PoolFrame {
  std::unique_ptr<Page> page;
  std::atomic<uint32_t> pin_count{0};
  /// Position in the shard's recency list (the frame is always linked,
  /// pinned or not; eviction skips pinned frames).
  std::list<PageId>::iterator lru_pos;
  bool dirty = false;
  /// A read is in flight: the page bytes are not yet valid. Waiters
  /// block on the shard's condition variable holding a copy of `load`.
  bool loading = false;
  std::shared_ptr<LoadState> load;
};

}  // namespace internal

/// \brief RAII write pin on a cached page: the frame is marked dirty and
/// the page may be mutated until release.
class MutPageRef {
 public:
  MutPageRef() = default;
  MutPageRef(PageId id, internal::PoolFrame* frame)
      : id_(id), frame_(frame) {}
  ~MutPageRef() { Release(); }

  MutPageRef(const MutPageRef&) = delete;
  MutPageRef& operator=(const MutPageRef&) = delete;
  MutPageRef(MutPageRef&& other) noexcept { MoveFrom(&other); }
  MutPageRef& operator=(MutPageRef&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }

  bool valid() const { return frame_ != nullptr; }
  Page& page() const { return *frame_->page; }
  PageId id() const { return id_; }

  /// Lock-free: the release-ordered decrement pairs with the evictor's
  /// acquire load, so page writes complete before the frame can be freed.
  void Release() {
    if (frame_ != nullptr) {
      frame_->pin_count.fetch_sub(1, std::memory_order_release);
    }
    frame_ = nullptr;
  }

 private:
  void MoveFrom(MutPageRef* other) {
    id_ = other->id_;
    frame_ = other->frame_;
    other->frame_ = nullptr;
  }

  PageId id_ = kInvalidPage;
  internal::PoolFrame* frame_ = nullptr;
};

/// \brief RAII pin on a cached page. The referenced page stays resident
/// while at least one PageRef to it is alive.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageId id, internal::PoolFrame* frame) : id_(id), frame_(frame) {}
  ~PageRef() { Release(); }

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept { MoveFrom(&other); }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(&other);
    }
    return *this;
  }

  bool valid() const { return frame_ != nullptr; }
  const Page& page() const { return *frame_->page; }
  PageId id() const { return id_; }

  void Release() {
    if (frame_ != nullptr) {
      frame_->pin_count.fetch_sub(1, std::memory_order_release);
    }
    frame_ = nullptr;
  }

 private:
  void MoveFrom(PageRef* other) {
    id_ = other->id_;
    frame_ = other->frame_;
    other->frame_ = nullptr;
  }

  PageId id_ = kInvalidPage;
  internal::PoolFrame* frame_ = nullptr;
};

/// \brief Sharded thread-safe page cache with per-shard LRU replacement,
/// atomic pin counting and write-back.
///
/// Models the database buffer pool the paper's disk-access analysis
/// assumes: a buffer-pool miss is one "disk access" (charged to the
/// QueryStats passed to that Fetch), a hit is free. `DropAll()` emulates
/// a cold cache, `WarmAll()` a hot one.
///
/// Concurrency model: PageIds hash across N shards, each with its own
/// mutex, frame map and recency list, so unrelated fetches never contend.
/// A miss inserts a pinned "loading" frame, then performs the store read
/// with the shard unlocked — concurrent misses on one shard overlap their
/// I/O, and hits proceed meanwhile; a second fetch of a loading page
/// waits on the shard's condition variable instead of re-reading.
/// Pin counts are atomics: releasing a PageRef/MutPageRef is one relaxed
/// decrement with no lock at all. Eviction is shard-local and skips
/// pinned frames (every frame stays on the recency list while resident).
///
/// Accounting: global hit/miss totals are relaxed atomics; per-query
/// charging goes through the optional `QueryStats*` each Fetch takes, so
/// concurrent queries each count their own accesses without any shared
/// mutable registration (the old AttachStats pattern).
class BufferPool {
 public:
  /// `capacity` is the number of page frames (>= 1), split evenly across
  /// `shards` (0 = pick automatically: enough shards for parallelism but
  /// at least 8 frames each, so tiny pools are not carved into shards
  /// that exhaust the moment two pins collide; explicit counts are only
  /// clamped so every shard has at least one frame). Single-shard pools
  /// behave exactly like the old global-LRU pool. The pool does not own
  /// the store.
  explicit BufferPool(PageStore* store, size_t capacity, size_t shards = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches and pins a page; hit/miss is charged to `stats` if non-null.
  Result<PageRef> Fetch(PageId id, QueryStats* stats = nullptr);

  /// Fetches a page for writing: pins it and marks the frame dirty; the
  /// bytes reach the store on eviction or FlushAll.
  Result<MutPageRef> FetchMut(PageId id, QueryStats* stats = nullptr);

  /// Allocates a fresh zeroed page in the store and returns it pinned
  /// for writing.
  Result<MutPageRef> NewPage();

  /// Writes every dirty frame back to the store (pages stay cached).
  Status FlushAll();

  /// Flushes dirty frames, then evicts every unpinned page; fails (and
  /// drops nothing) if any page is pinned. All shards are locked for the
  /// duration, so concurrent readers see either the full cache or none.
  Status DropAll();

  /// Prefetches every page of the store (up to capacity; never evicts).
  Status WarmAll();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  size_t resident() const;
  /// Test hook: sum of every resident frame's pin count (plus any
  /// in-flight loading placeholders, which hold their loader's pin).
  /// A quiesced pool — no live PageRef/MutPageRef — must report zero;
  /// fault tests assert this after every injected error.
  uint64_t DebugTotalPins() const;
  uint64_t total_misses() const {
    return total_misses_.load(std::memory_order_relaxed);
  }
  uint64_t total_hits() const {
    return total_hits_.load(std::memory_order_relaxed);
  }
  /// Fetches that failed with ResourceExhausted: every frame of the
  /// page's shard stayed pinned for the whole exhaustion wait.
  uint64_t total_exhausted() const {
    return total_exhausted_.load(std::memory_order_relaxed);
  }

 private:
  using Frame = internal::PoolFrame;

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<PageId, Frame> frames;
    std::list<PageId> lru;  // front = most recently used; all frames
    size_t capacity = 0;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  /// Pins an existing or freshly-read frame; shared by Fetch/FetchMut.
  Result<Frame*> PinFrame(PageId id, QueryStats* stats, bool mark_dirty);
  /// Loads `id` unpinned if absent and its shard has a free frame (a
  /// full shard declines: WarmAll never evicts); true iff this call
  /// performed a store read.
  Result<bool> LoadIfAbsent(PageId id);
  /// Evicts one unpinned, non-loading frame of `shard` (writing it back
  /// if dirty); kResourceExhausted when every frame is pinned. Caller
  /// holds the shard mutex.
  Status EvictOneLocked(Shard* shard);

  PageStore* store_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> total_misses_{0};
  std::atomic<uint64_t> total_hits_{0};
  std::atomic<uint64_t> total_exhausted_{0};
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_BUFFER_POOL_H_
