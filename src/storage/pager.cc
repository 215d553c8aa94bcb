#include "storage/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <cstring>

namespace xksearch {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

constexpr off_t PageOffset(PageId id) {
  return static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
}

}  // namespace

Result<std::unique_ptr<FilePageStore>> FilePageStore::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create", path);
  return std::unique_ptr<FilePageStore>(new FilePageStore(path, fd, 0));
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Errno("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("cannot stat", path);
  }
  if (st.st_size < 0 || st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption("file size not a multiple of page size: " + path);
  }
  return std::unique_ptr<FilePageStore>(new FilePageStore(
      path, fd,
      static_cast<PageId>(st.st_size / static_cast<off_t>(kPageSize))));
}

FilePageStore::~FilePageStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status FilePageStore::ReadPage(PageId id, Page* out) {
  if (id >= page_count()) {
    return Status::OutOfRange("page " + std::to_string(id) + " out of range");
  }
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pread(fd_, out->data.data() + done, kPageSize - done,
                              PageOffset(id) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read failed in", path_);
    }
    if (n == 0) return Errno("short read in", path_);
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FilePageStore::WritePage(PageId id, const Page& page) {
  if (id >= page_count()) {
    return Status::OutOfRange("page " + std::to_string(id) + " out of range");
  }
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pwrite(fd_, page.data.data() + done, kPageSize - done,
                               PageOffset(id) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write failed in", path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<PageId> FilePageStore::AllocatePage() {
  static const Page kZeroPage = [] {
    Page p;
    p.Zero();
    return p;
  }();
  const PageId id = page_count_.fetch_add(1, std::memory_order_acq_rel);
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n =
        ::pwrite(fd_, kZeroPage.data.data() + done, kPageSize - done,
                 PageOffset(id) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      page_count_.fetch_sub(1, std::memory_order_acq_rel);
      return Errno("write failed in", path_);
    }
    done += static_cast<size_t>(n);
  }
  return id;
}

Status FilePageStore::Sync() {
  if (::fsync(fd_) != 0) return Errno("sync failed in", path_);
  return Status::OK();
}

Status FilePageStore::Truncate(PageId page_count) {
  if (::ftruncate(fd_, PageOffset(page_count)) != 0) {
    return Errno("truncate failed in", path_);
  }
  page_count_.store(page_count, std::memory_order_release);
  return Status::OK();
}

Status MemPageStore::ReadPage(PageId id, Page* out) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(id) + " out of range");
  }
  *out = *pages_[id];
  return Status::OK();
}

Status MemPageStore::WritePage(PageId id, const Page& page) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(id) + " out of range");
  }
  *pages_[id] = page;
  return Status::OK();
}

Result<PageId> MemPageStore::AllocatePage() {
  pages_.push_back(std::make_unique<Page>());
  pages_.back()->Zero();
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemPageStore::Truncate(PageId page_count) {
  while (pages_.size() > page_count) pages_.pop_back();
  while (pages_.size() < page_count) {
    pages_.push_back(std::make_unique<Page>());
    pages_.back()->Zero();
  }
  return Status::OK();
}

}  // namespace xksearch
