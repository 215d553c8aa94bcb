#ifndef XKSEARCH_STORAGE_BPTREE_H_
#define XKSEARCH_STORAGE_BPTREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace xksearch {

/// Three-way lexicographic comparison of byte strings (memcmp semantics,
/// shorter prefix first). This is the only key order the B+tree knows;
/// Dewey document order is obtained through the order-preserving codec.
int CompareBytes(std::string_view a, std::string_view b);

/// \brief Bulk loader for a read-only B+tree file.
///
/// Keys must be added in strictly increasing byte order. The builder packs
/// leaves left to right and grows internal levels as leaves fill, giving
/// ~100% page utilization — the layout a freshly built keyword index has.
///
/// File layout: page 0 is the meta page (magic, root, height, entry count,
/// first leaf, user metadata blob); every other page is a tree node.
class BPlusTreeBuilder {
 public:
  /// Builds into `store`, which must be empty.
  explicit BPlusTreeBuilder(PageStore* store);

  BPlusTreeBuilder(const BPlusTreeBuilder&) = delete;
  BPlusTreeBuilder& operator=(const BPlusTreeBuilder&) = delete;

  /// Adds one entry; `key` must be strictly greater than the previous key.
  Status Add(std::string_view key, std::string_view value);

  /// Opaque application metadata persisted in the meta page (e.g. the
  /// serialized level table). Must fit the meta page (~4000 bytes).
  void SetMetadata(std::vector<uint8_t> metadata) {
    metadata_ = std::move(metadata);
  }

  /// Writes all pending nodes and the meta page. The builder must not be
  /// used afterwards.
  Status Finish();

  uint64_t entry_count() const { return entry_count_; }

 private:
  struct PendingEntry {
    std::string key;
    std::string value;  // leaf: payload; internal: 4-byte child page id
  };

  struct LevelState {
    std::vector<PendingEntry> entries;
    size_t bytes = 0;          // serialized entry+slot bytes so far
    PageId prev_page = kInvalidPage;  // previously flushed page (leaf link)
  };

  static size_t EntrySize(const PendingEntry& e);
  Status AddToLevel(size_t level, PendingEntry entry);
  Status FlushLevel(size_t level, bool finishing);
  Status WriteNode(size_t level, const LevelState& state, PageId page_id,
                   PageId next_leaf);

  PageStore* store_;
  std::vector<LevelState> levels_;  // [0] = leaves
  std::vector<uint8_t> metadata_;
  std::string last_key_;
  uint64_t entry_count_ = 0;
  PageId first_leaf_ = kInvalidPage;
  bool finished_ = false;
};

/// \brief Read-only B+tree with bidirectional leaf cursors.
///
/// All page access goes through a BufferPool, so cache behaviour (and the
/// paper's "number of disk accesses") is fully controlled by the caller.
class BPlusTree {
 public:
  /// Parses the meta page of the file behind `pool`.
  static Result<BPlusTree> Open(BufferPool* pool);

  /// Number of entries.
  uint64_t entry_count() const { return entry_count_; }
  /// Tree height in levels (0 = empty, 1 = root is a leaf).
  uint32_t height() const { return height_; }

  const std::vector<uint8_t>& metadata() const { return metadata_; }

  /// Point lookup; NotFound if absent. Page accesses are charged to
  /// `stats` when non-null.
  Result<std::string> Get(std::string_view key,
                          QueryStats* stats = nullptr) const;

  /// \brief Iterator over leaf entries. Invalidated if the pool's pages
  /// are dropped while positioned.
  ///
  /// A cursor is single-threaded, but any number of cursors (across
  /// threads) may walk one tree concurrently: all shared state is
  /// read-only and the buffer pool is thread-safe. Each cursor charges
  /// its page accesses to its own stats sink, so concurrent queries
  /// never race on accounting.
  class Cursor {
   public:
    explicit Cursor(const BPlusTree* tree) : tree_(tree) {}

    /// Charges this cursor's page fetches to `stats` (may be null).
    void set_stats(QueryStats* stats) { stats_ = stats; }

    /// Positions at the first entry with key >= `key` (right-match probe).
    Status Seek(std::string_view key);
    /// Positions at the last entry with key <= `key` (left-match probe).
    Status SeekForPrev(std::string_view key);
    Status SeekToFirst();
    Status SeekToLast();

    /// Advances; cursor becomes invalid past the last entry.
    Status Next();
    /// Steps back; cursor becomes invalid before the first entry.
    Status Prev();

    bool Valid() const { return valid_; }
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }

   private:
    friend class BPlusTree;
    Status LoadLeaf(PageId leaf);
    Status PositionAt(size_t slot);
    void Invalidate() {
      valid_ = false;
      leaf_ref_.Release();
    }

    const BPlusTree* tree_;
    QueryStats* stats_ = nullptr;
    PageRef leaf_ref_;
    PageId leaf_ = kInvalidPage;
    size_t slot_ = 0;
    size_t slot_count_ = 0;
    bool valid_ = false;
    std::string_view key_;
    std::string_view value_;
  };

  Cursor NewCursor() const { return Cursor(this); }

 private:
  BPlusTree(BufferPool* pool, PageId root, uint32_t height,
            uint64_t entry_count, PageId first_leaf,
            std::vector<uint8_t> metadata)
      : pool_(pool),
        root_(root),
        height_(height),
        entry_count_(entry_count),
        first_leaf_(first_leaf),
        metadata_(std::move(metadata)) {}

  /// Descends to the leaf whose key range covers `key`, charging the
  /// internal-node fetches to `stats`.
  Result<PageId> FindLeaf(std::string_view key, QueryStats* stats) const;

  BufferPool* pool_;
  PageId root_;
  uint32_t height_;
  uint64_t entry_count_;
  PageId first_leaf_;
  std::vector<uint8_t> metadata_;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_BPTREE_H_
