#include "storage/bptree.h"

#include <cassert>
#include <cstring>

#include "storage/node_format.h"

namespace xksearch {

namespace {

using node_format::kMagic;
using node_format::kVersion;
using node_format::kMetaMagic;
using node_format::kMetaVersion;
using node_format::kMetaRoot;
using node_format::kMetaHeight;
using node_format::kMetaEntryCount;
using node_format::kMetaFirstLeaf;
using node_format::kMetaUserLen;
using node_format::kMetaUserData;
using node_format::kNodeInternal;
using node_format::kNodeLeaf;
using node_format::kNodeType;
using node_format::kNodeCount;
using node_format::kNodeLinkA;
using node_format::kNodeLinkB;
using node_format::kNodeHeader;
using node_format::kNodeCapacity;
using node_format::NodeView;
using node_format::PutVarintTo;
using node_format::VarintSize;

}  // namespace

int CompareBytes(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

BPlusTreeBuilder::BPlusTreeBuilder(PageStore* store) : store_(store) {
  assert(store_->page_count() == 0 && "builder requires an empty store");
  // Reserve page 0 for the meta page.
  auto meta = store_->AllocatePage();
  assert(meta.ok() && meta.ValueOrDie() == 0);
  (void)meta;
}

size_t BPlusTreeBuilder::EntrySize(const PendingEntry& e) {
  return VarintSize(e.key.size()) + e.key.size() +
         VarintSize(e.value.size()) + e.value.size() + 2 /* slot */;
}

Status BPlusTreeBuilder::Add(std::string_view key, std::string_view value) {
  assert(!finished_);
  if (entry_count_ > 0 && CompareBytes(key, last_key_) <= 0) {
    return Status::InvalidArgument(
        "B+tree bulk load requires strictly increasing keys");
  }
  last_key_.assign(key);
  ++entry_count_;
  return AddToLevel(0, PendingEntry{std::string(key), std::string(value)});
}

Status BPlusTreeBuilder::AddToLevel(size_t level, PendingEntry entry) {
  if (level >= levels_.size()) levels_.emplace_back();
  const size_t esize = EntrySize(entry);
  if (esize > kNodeCapacity) {
    return Status::InvalidArgument("entry too large for a page: " +
                                   std::to_string(esize) + " bytes");
  }
  LevelState& st = levels_[level];
  if (!st.entries.empty() && st.bytes + esize > kNodeCapacity) {
    XKS_RETURN_NOT_OK(FlushLevel(level, /*finishing=*/false));
  }
  levels_[level].entries.push_back(std::move(entry));
  levels_[level].bytes += esize;
  return Status::OK();
}

Status BPlusTreeBuilder::WriteNode(size_t level, const LevelState& state,
                                   PageId page_id, PageId next_leaf) {
  Page page;
  page.Zero();
  const bool leaf = level == 0;
  page.WriteU8(kNodeType, leaf ? kNodeLeaf : kNodeInternal);

  size_t begin = 0;
  size_t n = state.entries.size();
  if (!leaf) {
    // The first pending entry becomes the leftmost child; its key is the
    // separator the parent holds, so it is not stored here.
    assert(n >= 1 && state.entries[0].value.size() == 4);
    uint32_t child0;
    std::memcpy(&child0, state.entries[0].value.data(), 4);
    page.WriteU32(kNodeLinkA, child0);
    begin = 1;
    n -= 1;
  } else {
    page.WriteU32(kNodeLinkA, next_leaf);
    page.WriteU32(kNodeLinkB, state.prev_page);
  }
  page.WriteU16(kNodeCount, static_cast<uint16_t>(n));

  size_t heap = kNodeHeader + 2 * n;
  for (size_t i = 0; i < n; ++i) {
    const PendingEntry& e = state.entries[begin + i];
    page.WriteU16(kNodeHeader + 2 * i, static_cast<uint16_t>(heap));
    PutVarintTo(page.data.data(), &heap, static_cast<uint32_t>(e.key.size()));
    std::memcpy(page.bytes(heap), e.key.data(), e.key.size());
    heap += e.key.size();
    PutVarintTo(page.data.data(), &heap, static_cast<uint32_t>(e.value.size()));
    std::memcpy(page.bytes(heap), e.value.data(), e.value.size());
    heap += e.value.size();
    assert(heap <= kPageSize);
  }
  return store_->WritePage(page_id, page);
}

Status BPlusTreeBuilder::FlushLevel(size_t level, bool finishing) {
  LevelState& st = levels_[level];
  if (st.entries.empty()) return Status::OK();

  XKS_ASSIGN_OR_RETURN(PageId page_id, store_->AllocatePage());
  XKS_RETURN_NOT_OK(WriteNode(level, st, page_id, kInvalidPage));

  if (level == 0) {
    if (first_leaf_ == kInvalidPage) first_leaf_ = page_id;
    if (st.prev_page != kInvalidPage) {
      // Patch the previous leaf's next pointer now that we know our id.
      Page prev;
      XKS_RETURN_NOT_OK(store_->ReadPage(st.prev_page, &prev));
      prev.WriteU32(kNodeLinkA, page_id);
      XKS_RETURN_NOT_OK(store_->WritePage(st.prev_page, prev));
    }
  }

  PendingEntry up;
  up.key = st.entries[0].key;
  up.value.assign(reinterpret_cast<const char*>(&page_id), 4);

  st.entries.clear();
  st.bytes = 0;
  st.prev_page = page_id;

  if (!finishing) {
    XKS_RETURN_NOT_OK(AddToLevel(level + 1, std::move(up)));
  }
  return Status::OK();
}

Status BPlusTreeBuilder::Finish() {
  assert(!finished_);
  finished_ = true;

  PageId root = kInvalidPage;
  uint32_t height = 0;
  for (size_t level = 0; level < levels_.size(); ++level) {
    LevelState& st = levels_[level];
    const bool is_top = level + 1 == levels_.size();
    if (is_top && st.prev_page == kInvalidPage) {
      // Everything pending at the top level fits in one node: the root.
      XKS_RETURN_NOT_OK(FlushLevel(level, /*finishing=*/true));
      root = st.prev_page;
      height = static_cast<uint32_t>(level + 1);
      break;
    }
    // More than one node at this level: flush the remainder and let the
    // separators it pushed up decide the parent level.
    if (!st.entries.empty()) {
      XKS_RETURN_NOT_OK(FlushLevel(level, /*finishing=*/false));
    }
  }

  Page meta;
  meta.Zero();
  meta.WriteU32(kMetaMagic, kMagic);
  meta.WriteU32(kMetaVersion, kVersion);
  meta.WriteU32(kMetaRoot, root);
  meta.WriteU32(kMetaHeight, height);
  meta.WriteU64(kMetaEntryCount, entry_count_);
  meta.WriteU32(kMetaFirstLeaf, first_leaf_);
  if (kMetaUserData + metadata_.size() > kPageSize) {
    return Status::InvalidArgument("B+tree metadata blob too large");
  }
  meta.WriteU32(kMetaUserLen, static_cast<uint32_t>(metadata_.size()));
  if (!metadata_.empty()) {
    std::memcpy(meta.bytes(kMetaUserData), metadata_.data(),
                metadata_.size());
  }
  XKS_RETURN_NOT_OK(store_->WritePage(0, meta));
  return store_->Sync();
}

Result<BPlusTree> BPlusTree::Open(BufferPool* pool) {
  XKS_ASSIGN_OR_RETURN(PageRef meta_ref, pool->Fetch(0));
  const Page& meta = meta_ref.page();
  if (meta.ReadU32(kMetaMagic) != kMagic) {
    return Status::Corruption("not a B+tree file (bad magic)");
  }
  if (meta.ReadU32(kMetaVersion) != kVersion) {
    return Status::Corruption("unsupported B+tree version");
  }
  const uint32_t user_len = meta.ReadU32(kMetaUserLen);
  if (kMetaUserData + user_len > kPageSize) {
    return Status::Corruption("metadata blob overflows meta page");
  }
  std::vector<uint8_t> metadata(meta.bytes(kMetaUserData),
                                meta.bytes(kMetaUserData) + user_len);
  return BPlusTree(pool, meta.ReadU32(kMetaRoot), meta.ReadU32(kMetaHeight),
                   meta.ReadU64(kMetaEntryCount), meta.ReadU32(kMetaFirstLeaf),
                   std::move(metadata));
}

Result<PageId> BPlusTree::FindLeaf(std::string_view key,
                                   QueryStats* stats) const {
  if (root_ == kInvalidPage) {
    return Status::NotFound("tree is empty");
  }
  PageId cur = root_;
  for (uint32_t level = height_; level > 1; --level) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(cur, stats));
    NodeView node(ref.page());
    if (node.IsLeaf()) {
      return Status::Corruption("unexpected leaf above leaf level");
    }
    cur = node.ChildFor(key);
  }
  return cur;
}

Result<std::string> BPlusTree::Get(std::string_view key,
                                   QueryStats* stats) const {
  Cursor cursor(this);
  cursor.set_stats(stats);
  XKS_RETURN_NOT_OK(cursor.Seek(key));
  if (!cursor.Valid() || CompareBytes(cursor.key(), key) != 0) {
    return Status::NotFound("key not present");
  }
  return std::string(cursor.value());
}

Status BPlusTree::Cursor::LoadLeaf(PageId leaf) {
  if (leaf == kInvalidPage) {
    Invalidate();
    return Status::OK();
  }
  XKS_ASSIGN_OR_RETURN(PageRef ref, tree_->pool_->Fetch(leaf, stats_));
  leaf_ref_ = std::move(ref);
  leaf_ = leaf;
  slot_count_ = NodeView(leaf_ref_.page()).count();
  return Status::OK();
}

Status BPlusTree::Cursor::PositionAt(size_t slot) {
  NodeView node(leaf_ref_.page());
  if (!node.Entry(slot, &key_, &value_)) {
    Invalidate();
    return Status::Corruption("malformed leaf entry");
  }
  slot_ = slot;
  valid_ = true;
  return Status::OK();
}

Status BPlusTree::Cursor::Seek(std::string_view key) {
  Invalidate();
  if (tree_->root_ == kInvalidPage) return Status::OK();
  XKS_ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(key, stats_));
  XKS_RETURN_NOT_OK(LoadLeaf(leaf));
  NodeView node(leaf_ref_.page());
  size_t slot = node.LowerBound(key);
  if (slot == slot_count_) {
    // All keys in this leaf are smaller; the match starts the next leaf.
    const PageId next = node.link_a();
    XKS_RETURN_NOT_OK(LoadLeaf(next));
    if (leaf_ref_.valid() && slot_count_ > 0) {
      return PositionAt(0);
    }
    Invalidate();
    return Status::OK();
  }
  return PositionAt(slot);
}

Status BPlusTree::Cursor::SeekForPrev(std::string_view key) {
  Invalidate();
  if (tree_->root_ == kInvalidPage) return Status::OK();
  XKS_ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(key, stats_));
  XKS_RETURN_NOT_OK(LoadLeaf(leaf));
  NodeView node(leaf_ref_.page());
  const size_t ub = node.UpperBound(key);
  if (ub == 0) {
    // Every key in this leaf is greater; the match ends the previous leaf.
    const PageId prev = node.link_b();
    XKS_RETURN_NOT_OK(LoadLeaf(prev));
    if (leaf_ref_.valid() && slot_count_ > 0) {
      return PositionAt(slot_count_ - 1);
    }
    Invalidate();
    return Status::OK();
  }
  return PositionAt(ub - 1);
}

Status BPlusTree::Cursor::SeekToFirst() {
  Invalidate();
  XKS_RETURN_NOT_OK(LoadLeaf(tree_->first_leaf_));
  if (leaf_ref_.valid() && slot_count_ > 0) return PositionAt(0);
  Invalidate();
  return Status::OK();
}

Status BPlusTree::Cursor::SeekToLast() {
  Invalidate();
  if (tree_->root_ == kInvalidPage) return Status::OK();
  PageId cur = tree_->root_;
  for (uint32_t level = tree_->height_; level > 1; --level) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, tree_->pool_->Fetch(cur, stats_));
    NodeView node(ref.page());
    cur = node.Child(node.count());
  }
  XKS_RETURN_NOT_OK(LoadLeaf(cur));
  if (leaf_ref_.valid() && slot_count_ > 0) {
    return PositionAt(slot_count_ - 1);
  }
  Invalidate();
  return Status::OK();
}

Status BPlusTree::Cursor::Next() {
  assert(valid_);
  if (slot_ + 1 < slot_count_) return PositionAt(slot_ + 1);
  const PageId next = NodeView(leaf_ref_.page()).link_a();
  XKS_RETURN_NOT_OK(LoadLeaf(next));
  if (leaf_ref_.valid() && slot_count_ > 0) return PositionAt(0);
  Invalidate();
  return Status::OK();
}

Status BPlusTree::Cursor::Prev() {
  assert(valid_);
  if (slot_ > 0) return PositionAt(slot_ - 1);
  const PageId prev = NodeView(leaf_ref_.page()).link_b();
  XKS_RETURN_NOT_OK(LoadLeaf(prev));
  if (leaf_ref_.valid() && slot_count_ > 0) {
    return PositionAt(slot_count_ - 1);
  }
  Invalidate();
  return Status::OK();
}

}  // namespace xksearch
