#ifndef XKSEARCH_STORAGE_PAGER_H_
#define XKSEARCH_STORAGE_PAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/page.h"

namespace xksearch {

/// \brief Abstract store of fixed-size pages; the raw-device layer under
/// the buffer pool.
///
/// Thread-safety contract: concurrent ReadPage calls (including of the
/// same page) are safe. WritePage/AllocatePage are only issued by
/// single-threaded writers (builders, the updater) or by the buffer pool
/// under its shard locks, never concurrently with each other for the
/// same page.
class PageStore {
 public:
  virtual ~PageStore() = default;

  virtual Status ReadPage(PageId id, Page* out) = 0;
  virtual Status WritePage(PageId id, const Page& page) = 0;
  /// Appends a zeroed page, returning its id.
  virtual Result<PageId> AllocatePage() = 0;
  virtual PageId page_count() const = 0;
  virtual Status Sync() = 0;

  /// Sets the store to exactly `page_count` pages (ftruncate semantics:
  /// shrinking discards the tail, growing appends zeroed pages). Crash
  /// recovery uses this to pin a store to the size its committed batch
  /// recorded; stores that cannot resize report NotSupported.
  virtual Status Truncate(PageId page_count) {
    (void)page_count;
    return Status::NotSupported("this page store cannot be truncated");
  }
};

/// \brief File-backed page store over a raw file descriptor.
///
/// Reads and writes use pread/pwrite, so any number of threads can read
/// pages concurrently without seek-pointer races — the property the
/// sharded buffer pool's parallel miss path relies on.
class FilePageStore : public PageStore {
 public:
  /// Opens (mode "open") or creates/truncates (mode "create") `path`.
  static Result<std::unique_ptr<FilePageStore>> Create(const std::string& path);
  static Result<std::unique_ptr<FilePageStore>> Open(const std::string& path);

  ~FilePageStore() override;

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  Result<PageId> AllocatePage() override;
  PageId page_count() const override {
    return page_count_.load(std::memory_order_acquire);
  }
  Status Sync() override;
  Status Truncate(PageId page_count) override;

  const std::string& path() const { return path_; }

 private:
  FilePageStore(std::string path, int fd, PageId page_count)
      : path_(std::move(path)), fd_(fd), page_count_(page_count) {}

  std::string path_;
  int fd_;
  std::atomic<PageId> page_count_;
};

/// \brief In-memory page store for tests and fully-cached ("hot") setups.
///
/// Concurrent ReadPage is safe once building is done: page buffers are
/// heap-allocated (stable addresses) and the slot vector only grows
/// during the single-threaded build phase.
class MemPageStore : public PageStore {
 public:
  MemPageStore() = default;

  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  Result<PageId> AllocatePage() override;
  PageId page_count() const override {
    return static_cast<PageId>(pages_.size());
  }
  Status Sync() override { return Status::OK(); }
  Status Truncate(PageId page_count) override;

 private:
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_PAGER_H_
