#ifndef XKSEARCH_STORAGE_BPTREE_MUT_H_
#define XKSEARCH_STORAGE_BPTREE_MUT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/node_format.h"
#include "storage/page.h"

namespace xksearch {

/// \brief A mutable B+tree over the same on-disk format as BPlusTree.
///
/// The bulk loader (BPlusTreeBuilder) covers the paper's build-once
/// workflow; this class adds incremental maintenance — upserts and
/// deletes with standard node splits — so an index can follow document
/// changes without a full rebuild. Files are interchangeable: a tree
/// bulk-loaded by the builder can be opened and mutated here, and after
/// Flush() the read-only BPlusTree (with its cursors) can open the result.
///
/// Every mutation goes through Apply(): a sorted batch of upserts and
/// deletes merged into each touched leaf once. Put and Delete are
/// one-edit batches.
///
/// Durability is explicit: mutations live in the buffer pool until
/// Flush() writes the dirty pages and the meta page. Simplifications,
/// chosen for the read-mostly index workload and called out here
/// deliberately: underfull nodes are not rebalanced (only emptied nodes
/// are unlinked), freed pages are not recycled, and the tree itself has
/// no write-ahead log. Crash atomicity lives a layer up:
/// DiskIndexUpdater stages this tree's writes behind a StagedPageStore
/// and commits them through the Wal (storage/wal.h), so a crash
/// mid-batch never leaves a half-flushed tree image on disk. A caller
/// flushing straight to a file gets the old contract — a crash between
/// flushes loses the unflushed batch but never corrupts a previously
/// flushed tree image, provided the caller flushes at consistent points.
class BPlusTreeMut {
 public:
  /// Creates an empty tree in an empty store (writes the meta page).
  static Result<BPlusTreeMut> Create(BufferPool* pool);

  /// Opens an existing tree (bulk-loaded or previously mutated).
  static Result<BPlusTreeMut> Open(BufferPool* pool);

  BPlusTreeMut(const BPlusTreeMut&) = delete;
  BPlusTreeMut& operator=(const BPlusTreeMut&) = delete;
  BPlusTreeMut(BPlusTreeMut&&) = default;
  BPlusTreeMut& operator=(BPlusTreeMut&&) = default;

  /// One edit of a batch: an upsert of (key, value), or a delete of key.
  struct Edit {
    std::string key;
    std::string value;
    bool erase = false;
  };

  /// Applies `edits`, sorted by key with no key twice, in one pass: each
  /// touched leaf is read once, merged with the run of edits in its key
  /// range and written once — split into as many leaves as the merged
  /// entries need, or unlinked when it empties. Every delete and entry
  /// size is checked before anything is written, so a missing key
  /// (NotFound) or an oversized entry (InvalidArgument) leaves the tree
  /// unchanged.
  Status Apply(const std::vector<Edit>& edits);

  /// Inserts or overwrites `key`.
  Status Put(std::string_view key, std::string_view value);

  /// Removes `key`; NotFound if absent.
  Status Delete(std::string_view key);

  /// Point lookup; NotFound if absent.
  Result<std::string> Get(std::string_view key) const;

  /// Point membership test, without copying the value.
  Result<bool> Contains(std::string_view key) const;

  /// Greatest entry with key <= `key`. Returns false when none exists.
  /// `found_value` may be null when only the key is wanted.
  Result<bool> FindFloor(std::string_view key, std::string* found_key,
                         std::string* found_value) const;

  /// Smallest entry with key >= `key`. Returns false when none exists.
  /// `found_value` may be null when only the key is wanted.
  Result<bool> FindCeil(std::string_view key, std::string* found_key,
                        std::string* found_value) const;

  /// Persists the meta page and all dirty frames. Call before opening
  /// the store with the read-only BPlusTree.
  Status Flush();

  /// Replaces the user metadata blob (persisted at the next Flush).
  void SetMetadata(std::vector<uint8_t> metadata) {
    metadata_ = std::move(metadata);
  }
  const std::vector<uint8_t>& metadata() const { return metadata_; }

  uint64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }

 private:
  explicit BPlusTreeMut(BufferPool* pool) : pool_(pool) {}

  struct PathStep {
    PageId page;
    size_t child_idx;  // which child of this internal node we descended to
  };

  /// Routes `key` to its leaf. `upper`, when given, receives the
  /// tightest separator above the leaf's key range (nullopt: unbounded).
  Result<PageId> DescendToLeaf(
      std::string_view key, std::vector<PathStep>* path,
      std::optional<std::string>* upper = nullptr) const;
  Status WriteNode(PageId page, const node_format::ParsedNode& node);
  /// Writes an oversized leaf as itself plus as many new right siblings
  /// as its entries need, and links each sibling into the parents.
  Status SplitLeaf(PageId page, node_format::ParsedNode node,
                   std::vector<PathStep> path);
  /// Unlinks an emptied leaf from the sibling chain and its parent.
  Status UnlinkLeaf(PageId page, const node_format::ParsedNode& node,
                    std::vector<PathStep> path);
  Status SplitInternal(PageId page, node_format::ParsedNode node,
                       std::vector<PathStep> path);
  Status InsertIntoParent(std::vector<PathStep> path, std::string separator,
                          PageId right_child);
  Status RemoveFromParent(std::vector<PathStep> path);
  Status CollapseRoot();

  BufferPool* pool_;
  PageId root_ = kInvalidPage;
  uint32_t height_ = 0;
  uint64_t entry_count_ = 0;
  PageId first_leaf_ = kInvalidPage;
  std::vector<uint8_t> metadata_;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_BPTREE_MUT_H_
