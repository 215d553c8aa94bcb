#ifndef XKSEARCH_STORAGE_FAULT_INJECTION_H_
#define XKSEARCH_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace xksearch {

/// \brief One deterministic fault to inject into a PageStore operation.
///
/// A rule matches an operation by kind (read/write), optionally by PageId,
/// skips its first `skip` matches, then fires on up to `fire_limit`
/// subsequent matches (each gated by `probability`, drawn from the store's
/// deterministic RNG). What "firing" does depends on `kind`:
///
///  * kError      — the operation does not touch the inner store and
///                  returns Status(code, message).
///  * kTornWrite  — (writes only) the first half of the page reaches the
///                  inner store, the second half keeps its old bytes, and
///                  the operation reports an error: the classic torn/short
///                  write a crashed process leaves behind.
///  * kLatency    — the operation sleeps for `latency`, then proceeds
///                  normally (fault-free slow disk; widens race windows in
///                  concurrency tests deterministically).
struct FaultRule {
  enum class Kind { kError, kTornWrite, kLatency };
  /// kWrite also matches page allocations and truncates (they extend or
  /// shrink the file: writes). kSync matches fsync barriers. kAny
  /// matches everything.
  enum class Op { kRead, kWrite, kSync, kAny };

  static constexpr uint64_t kForever = ~uint64_t{0};

  Kind kind = Kind::kError;
  Op op = Op::kAny;
  /// Restrict the rule to one page; nullopt matches every page.
  std::optional<PageId> page;
  /// Matching operations ignored before the rule starts firing ("fail the
  /// Nth read" = skip N-1).
  uint64_t skip = 0;
  /// How many matching operations the rule fires on before it exhausts
  /// itself; kForever never recovers, 1 is a transient-then-recover fault.
  uint64_t fire_limit = 1;
  /// Per-match chance of firing, drawn from the store's seeded RNG.
  double probability = 1.0;
  StatusCode code = StatusCode::kIoError;
  std::string message = "injected fault";
  std::chrono::microseconds latency{0};
};

class FaultInjectingPageStore;

/// \brief Deterministic process-death clock shared by every store of one
/// simulated process.
///
/// Each durable operation — page write, allocation, truncate or fsync —
/// on any attached FaultInjectingPageStore ticks one global clock, so
/// "the Nth write of the batch" means the Nth across il, scan, dict and
/// WAL stores together, in the single-writer order the updater issues
/// them. When the configured point is reached, the triggering operation
/// does not reach its inner store and EVERY attached store simulates a
/// crash at once (unsynced writes rolled back, all later operations
/// failing with IoError) — one process dies, not one file.
///
/// With no crash point configured the schedule just counts: a fault-free
/// "counting run" of a batch yields operations(), the domain the
/// crash-point sweep iterates over. The clock ticks regardless of
/// Arm()/Disarm(), which gate only FaultRules.
class CrashSchedule {
 public:
  /// Crash when the `n`th durable operation (1-based) is attempted.
  void CrashAtOperation(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    crash_at_op_ = n;
  }
  /// Crash when the `n`th fsync (1-based) is attempted: the batch's
  /// barrier discipline is only provable by dying on barriers too.
  void CrashAtSync(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    crash_at_sync_ = n;
  }

  /// Durable operations observed so far (including the fatal one).
  uint64_t operations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }
  /// Fsyncs observed so far.
  uint64_t syncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }
  bool crashed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }

 private:
  friend class FaultInjectingPageStore;

  void Attach(FaultInjectingPageStore* store) {
    std::lock_guard<std::mutex> lock(mu_);
    stores_.push_back(store);
  }
  /// Advances the clock; true when this operation is the crash point.
  bool TickOp(bool is_sync) {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return false;
    ++ops_;
    if (is_sync) ++syncs_;
    if ((crash_at_op_ != 0 && ops_ == crash_at_op_) ||
        (crash_at_sync_ != 0 && is_sync && syncs_ == crash_at_sync_)) {
      crashed_ = true;
      return true;
    }
    return false;
  }
  /// Kills every attached store (called outside mu_-holding paths of the
  /// stores themselves; their SimulateCrash takes their own locks).
  void CrashAll();

  mutable std::mutex mu_;
  std::vector<FaultInjectingPageStore*> stores_;
  uint64_t ops_ = 0;
  uint64_t syncs_ = 0;
  uint64_t crash_at_op_ = 0;
  uint64_t crash_at_sync_ = 0;
  bool crashed_ = false;
};

/// \brief A PageStore decorator that injects deterministic faults.
///
/// Wraps any PageStore and applies a schedule of FaultRules to its reads
/// and writes, returning real Status errors (never aborting), so the
/// error paths of everything above the store — buffer pool, B+trees,
/// disk index, searcher, serving layer — can be driven from tests.
///
/// The schedule is inert until Arm() (or arm_on_add); a test can build
/// an index through the wrapper fault-free, then arm the schedule for
/// the query phase. All bookkeeping is internal to this class: rules,
/// match counters and the RNG live behind one mutex, so concurrent
/// readers (the sharded buffer pool) observe one deterministic global
/// operation order under tsan.
class FaultInjectingPageStore : public PageStore {
 public:
  /// Non-owning wrap; `inner` must outlive this store.
  explicit FaultInjectingPageStore(PageStore* inner, uint64_t rng_seed = 1);
  /// Owning wrap (the decorator pattern DiskIndexOptions::store_decorator
  /// uses).
  explicit FaultInjectingPageStore(std::unique_ptr<PageStore> inner,
                                   uint64_t rng_seed = 1);

  // PageStore interface; every call consults the armed schedule first.
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  Result<PageId> AllocatePage() override;
  PageId page_count() const override { return inner_->page_count(); }
  /// Intercepted like reads and writes: a rule with Op::kSync makes the
  /// fsync fail (counted in injected_errors), and the crash schedule can
  /// pick a barrier as its kill point. On a successful forward the
  /// store's unsynced-write tracking is checkpointed: everything written
  /// so far would survive a SimulateCrash().
  Status Sync() override;
  Status Truncate(PageId page_count) override;

  /// Attaches this store to a shared crash schedule and starts tracking
  /// unsynced writes (undo images) so SimulateCrash can drop them. The
  /// current inner contents count as synced.
  void SetCrashSchedule(std::shared_ptr<CrashSchedule> schedule);

  /// The moment of process death for this store: rolls the inner store
  /// back to its last-synced state (undo images + truncate to the
  /// last-synced size) and fails every subsequent operation with
  /// IoError. Dropping ALL unsynced writes is the adversarial corner of
  /// the POSIX contract — any durable subset a real kernel might keep is
  /// at least as easy to recover from, because the WAL's checksummed
  /// prefix scan never applies a batch whose commit frame is missing.
  void SimulateCrash();

  /// True once this store has crashed (directly or via its schedule).
  bool crashed() const { return dead_.load(std::memory_order_acquire); }

  /// Adds a rule to the schedule and returns it for chaining-style use.
  void AddRule(FaultRule rule);

  // Convenience schedule builders for the common shapes.

  /// Fail the Nth read (1-based) across all pages, once.
  void FailNthRead(uint64_t n, StatusCode code = StatusCode::kIoError);
  /// Fail the Nth write (1-based) across all pages, once.
  void FailNthWrite(uint64_t n, StatusCode code = StatusCode::kIoError);
  /// Fail the Nth fsync (1-based), once.
  void FailNthSync(uint64_t n, StatusCode code = StatusCode::kIoError);
  /// Fail every read of `page` for `times` matches (default: forever).
  void FailPageReads(PageId page, uint64_t times = FaultRule::kForever);
  /// Fail each read independently with probability `p` (deterministic in
  /// the store's seed), at most `times` times.
  void FailReadsWithProbability(double p,
                                uint64_t times = FaultRule::kForever);
  /// Tear the next write of `page`: half the bytes land, then an error.
  void TornWriteOnPage(PageId page);
  /// Delay every read by `latency` (no error). Widens concurrency windows.
  void AddReadLatency(std::chrono::microseconds latency);

  /// Removes every rule (pending and exhausted) and disarms nothing else:
  /// operation counters keep counting.
  void ClearFaults();

  /// Faults only fire while armed; latency rules are also suppressed when
  /// disarmed. Building through a disarmed wrapper is exactly pass-through.
  void Arm() { armed_.store(true, std::memory_order_release); }
  void Disarm() { armed_.store(false, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Total operations observed (armed or not).
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  /// Operations that returned an injected error (kError or kTornWrite).
  uint64_t injected_errors() const {
    return injected_errors_.load(std::memory_order_relaxed);
  }

  PageStore* inner() const { return inner_; }

 private:
  struct ActiveRule {
    FaultRule rule;
    uint64_t matched = 0;  // matching ops seen so far
    uint64_t fired = 0;    // times the rule has fired
  };

  /// Consults the schedule for one operation. Returns the error to
  /// report, or OK to proceed; sets `*torn` when a torn write fired.
  Status Consult(FaultRule::Op op, PageId id, bool* torn);

  /// Death check + crash-clock tick for one durable operation; returns
  /// the IoError to report when the store is (or just became) dead.
  Status CrashGate(bool is_sync);
  /// Saves the pre-image of `id` once per sync epoch (only pages the
  /// last fsync made durable need undo).
  void RecordUndo(PageId id);

  PageStore* inner_;
  std::unique_ptr<PageStore> owned_inner_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> injected_errors_{0};

  std::mutex mu_;
  std::vector<ActiveRule> rules_;  // guarded by mu_
  Rng rng_;                        // guarded by mu_
  std::shared_ptr<CrashSchedule> crash_;            // guarded by mu_
  PageId synced_count_ = 0;                         // guarded by mu_
  std::map<PageId, std::unique_ptr<Page>> undo_;    // guarded by mu_
  bool track_unsynced_ = false;                     // guarded by mu_
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_FAULT_INJECTION_H_
