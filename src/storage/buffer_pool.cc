#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace xksearch {

namespace {

/// Default shard count when the caller does not choose one. 16 mutexes
/// is plenty for the worker counts the serve layer runs (contention on a
/// shard needs two queries hashing to it in the same instant).
constexpr size_t kDefaultMaxShards = 16;

/// Auto-sharding keeps at least this many frames per shard. Concurrent
/// queries pin pages (cursor leaves, descent path) for their duration;
/// a shard with only 1-2 frames exhausts as soon as two pins collide,
/// so tiny pools get fewer shards rather than unusably small ones.
constexpr size_t kMinFramesPerShard = 8;

/// When every frame in its shard is pinned, a miss retries: first by
/// yielding up to kSpinYields times, then by sleeping kBackoffSleep
/// between retries, and it reports exhaustion only once kExhaustionWait
/// has passed since the first collision. Pins are typically held for
/// microseconds, but a holder that is descheduled (a loaded machine, a
/// chunk worker mid-block) can keep its pin for milliseconds; a fixed
/// yield count then failed queries whose pool was big enough. A pool
/// genuinely too small for its concurrent pin load still fails.
constexpr size_t kSpinYields = 256;
constexpr std::chrono::microseconds kBackoffSleep{50};
constexpr std::chrono::milliseconds kExhaustionWait{500};

}  // namespace

BufferPool::BufferPool(PageStore* store, size_t capacity, size_t shards)
    : store_(store), capacity_(capacity == 0 ? 1 : capacity) {
  size_t n = shards == 0
                 ? std::min(kDefaultMaxShards,
                            std::max<size_t>(1, capacity_ / kMinFramesPerShard))
                 : shards;
  // Every shard must own at least one frame, or pages hashing to an
  // empty shard could never be cached at all.
  n = std::max<size_t>(1, std::min(n, capacity_));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = capacity_ / n + (i < capacity_ % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

Result<BufferPool::Frame*> BufferPool::PinFrame(PageId id, QueryStats* stats,
                                                bool mark_dirty) {
  Shard& shard = ShardFor(id);
  size_t yields = 0;
  std::chrono::steady_clock::time_point give_up;
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame& frame = it->second;
      if (frame.loading) {
        // Another thread's read is in flight: coalesce onto it. Hold the
        // shared LoadState (the frame itself is erased if the read
        // fails) and wait for the loader's verdict; a failed load wakes
        // every waiter with the loader's error instead of letting each
        // waiter silently re-issue the read.
        std::shared_ptr<internal::LoadState> load = frame.load;
        shard.cv.wait(lock, [&load] { return load->done; });
        if (!load->status.ok()) return load->status;
        continue;  // re-find: the frame is resident now (or evicted; retry)
      }
      frame.pin_count.fetch_add(1, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, frame.lru_pos);
      if (mark_dirty) frame.dirty = true;
      total_hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) ++stats->page_hits;
      return &frame;
    }

    // Miss: make room, then read with the shard unlocked so concurrent
    // misses (and all hits) on this shard proceed meanwhile.
    bool full = false;
    while (shard.frames.size() >= shard.capacity) {
      const Status evicted = EvictOneLocked(&shard);
      if (evicted.ok()) continue;
      if (!evicted.IsResourceExhausted()) return evicted;
      // Every frame is pinned or loading right now. Wait with the shard
      // unlocked so the pinning queries can progress, then retry from
      // the top (the page may even be resident by then).
      const auto now = std::chrono::steady_clock::now();
      if (yields == 0) give_up = now + kExhaustionWait;
      if (now >= give_up) {
        total_exhausted_.fetch_add(1, std::memory_order_relaxed);
        return evicted;
      }
      lock.unlock();
      if (yields++ < kSpinYields) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kBackoffSleep);
      }
      lock.lock();
      full = true;
      break;
    }
    if (full) continue;
    total_misses_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->page_reads;

    Frame& frame = shard.frames[id];
    frame.page = std::make_unique<Page>();
    frame.pin_count.store(1, std::memory_order_relaxed);
    frame.loading = true;
    frame.load = std::make_shared<internal::LoadState>();
    std::shared_ptr<internal::LoadState> load = frame.load;
    shard.lru.push_front(id);
    frame.lru_pos = shard.lru.begin();

    lock.unlock();
    const Status read = store_->ReadPage(id, frame.page.get());
    lock.lock();
    // The frame cannot have moved or been evicted meanwhile: map nodes
    // have stable addresses and eviction skips loading frames.
    load->done = true;
    load->status = read;
    if (!read.ok()) {
      shard.lru.erase(frame.lru_pos);
      shard.frames.erase(id);
      shard.cv.notify_all();
      return read;
    }
    frame.loading = false;
    frame.load.reset();
    if (mark_dirty) frame.dirty = true;
    shard.cv.notify_all();
    return &frame;
  }
}

Status BufferPool::EvictOneLocked(Shard* shard) {
  // Walk from the cold end, skipping frames that are pinned (the
  // release-ordered unpin decrement pairs with this acquire load, so a
  // just-released writer's page bytes are visible to the write-back) or
  // still loading.
  for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
    auto fit = shard->frames.find(*it);
    Frame& frame = fit->second;
    if (frame.loading) continue;
    if (frame.pin_count.load(std::memory_order_acquire) > 0) continue;
    if (frame.dirty) {
      XKS_RETURN_NOT_OK(store_->WritePage(*it, *frame.page));
    }
    shard->lru.erase(std::next(it).base());
    shard->frames.erase(fit);
    return Status::OK();
  }
  return Status::ResourceExhausted("buffer pool exhausted: all pages pinned");
}

Result<PageRef> BufferPool::Fetch(PageId id, QueryStats* stats) {
  Result<Frame*> frame = PinFrame(id, stats, /*mark_dirty=*/false);
  if (!frame.ok()) {
    if (stats != nullptr) ++stats->io_errors;
    return frame.status();
  }
  return PageRef(id, *frame);
}

Result<MutPageRef> BufferPool::FetchMut(PageId id, QueryStats* stats) {
  Result<Frame*> frame = PinFrame(id, stats, /*mark_dirty=*/true);
  if (!frame.ok()) {
    if (stats != nullptr) ++stats->io_errors;
    return frame.status();
  }
  return MutPageRef(id, *frame);
}

Result<MutPageRef> BufferPool::NewPage() {
  XKS_ASSIGN_OR_RETURN(const PageId id, store_->AllocatePage());
  return FetchMut(id);
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (!frame.dirty || frame.loading) continue;
      XKS_RETURN_NOT_OK(store_->WritePage(id, *frame.page));
      frame.dirty = false;
    }
  }
  return store_->Sync();
}

Status BufferPool::DropAll() {
  // Lock every shard (always in index order, so DropAll never deadlocks
  // against itself; fetches only ever take one shard lock at a time).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);

  // Verify no page is pinned before dropping anything, so a failed drop
  // leaves the cache fully intact.
  for (auto& shard : shards_) {
    for (auto& [id, frame] : shard->frames) {
      if (frame.loading ||
          frame.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::Internal("cannot drop buffer pool: page " +
                                std::to_string(id) + " is pinned");
      }
    }
  }
  for (auto& shard : shards_) {
    for (auto& [id, frame] : shard->frames) {
      if (!frame.dirty) continue;
      XKS_RETURN_NOT_OK(store_->WritePage(id, *frame.page));
      frame.dirty = false;
    }
    shard->frames.clear();
    shard->lru.clear();
  }
  return store_->Sync();
}

Result<bool> BufferPool::LoadIfAbsent(PageId id) {
  Shard& shard = ShardFor(id);
  std::unique_lock<std::mutex> lock(shard.mu);
  // If the page is already resident (or being read), or the shard is
  // full, do nothing.
  if (shard.frames.count(id) != 0 || shard.frames.size() >= shard.capacity) {
    return false;
  }

  Frame& frame = shard.frames[id];
  frame.page = std::make_unique<Page>();
  frame.loading = true;
  // Demand fetches can coalesce onto a warming load (PinFrame waits on
  // any loading frame), so it publishes its outcome through the same
  // shared LoadState protocol.
  frame.load = std::make_shared<internal::LoadState>();
  std::shared_ptr<internal::LoadState> load = frame.load;
  shard.lru.push_front(id);
  frame.lru_pos = shard.lru.begin();

  lock.unlock();
  const Status read = store_->ReadPage(id, frame.page.get());
  lock.lock();
  load->done = true;
  load->status = read;
  if (!read.ok()) {
    shard.lru.erase(frame.lru_pos);
    shard.frames.erase(id);
    shard.cv.notify_all();
    return read;
  }
  frame.loading = false;
  frame.load.reset();
  shard.cv.notify_all();
  return true;
}

Status BufferPool::WarmAll() {
  const PageId n = store_->page_count();
  for (PageId id = 0; id < n; ++id) {
    XKS_ASSIGN_OR_RETURN(const bool loaded, LoadIfAbsent(id));
    if (loaded) total_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

size_t BufferPool::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

uint64_t BufferPool::DebugTotalPins() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, frame] : shard->frames) {
      total += frame.pin_count.load(std::memory_order_acquire);
    }
  }
  return total;
}

}  // namespace xksearch
