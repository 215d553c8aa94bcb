#include "storage/bptree_mut.h"

#include <cassert>
#include <iterator>

#include "storage/bptree.h"  // CompareBytes

namespace xksearch {

namespace nf = node_format;

namespace {

/// Start index of each part an oversized entry run is cut into: the
/// fewest parts that fit a page, each cut once it holds an even share of
/// the bytes (for two parts: the smallest cut with at least half the
/// bytes on the left). A part is closed early when the next entry would
/// overflow the page. Every part is non-empty.
std::vector<size_t> SplitStarts(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  size_t total = 0;
  for (const auto& [k, v] : entries) total += nf::EntrySize(k, v);
  const size_t parts = (total + nf::kNodeCapacity - 1) / nf::kNodeCapacity;
  const size_t target = (total + parts - 1) / parts;
  std::vector<size_t> starts = {0};
  size_t acc = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const size_t size = nf::EntrySize(entries[i].first, entries[i].second);
    if (acc > 0 && (acc >= target || acc + size > nf::kNodeCapacity)) {
      starts.push_back(i);
      acc = 0;
    }
    acc += size;
  }
  return starts;
}

}  // namespace

Result<BPlusTreeMut> BPlusTreeMut::Create(BufferPool* pool) {
  BPlusTreeMut tree(pool);
  XKS_ASSIGN_OR_RETURN(MutPageRef meta, pool->NewPage());
  if (meta.id() != 0) {
    return Status::InvalidArgument("Create requires an empty store");
  }
  meta.page().Zero();
  meta.Release();
  XKS_RETURN_NOT_OK(tree.Flush());
  return tree;
}

Result<BPlusTreeMut> BPlusTreeMut::Open(BufferPool* pool) {
  XKS_ASSIGN_OR_RETURN(PageRef meta_ref, pool->Fetch(0));
  const Page& meta = meta_ref.page();
  if (meta.ReadU32(nf::kMetaMagic) != nf::kMagic) {
    return Status::Corruption("not a B+tree file (bad magic)");
  }
  if (meta.ReadU32(nf::kMetaVersion) != nf::kVersion) {
    return Status::Corruption("unsupported B+tree version");
  }
  BPlusTreeMut tree(pool);
  tree.root_ = meta.ReadU32(nf::kMetaRoot);
  tree.height_ = meta.ReadU32(nf::kMetaHeight);
  tree.entry_count_ = meta.ReadU64(nf::kMetaEntryCount);
  tree.first_leaf_ = meta.ReadU32(nf::kMetaFirstLeaf);
  const uint32_t user_len = meta.ReadU32(nf::kMetaUserLen);
  if (nf::kMetaUserData + user_len > kPageSize) {
    return Status::Corruption("metadata blob overflows meta page");
  }
  tree.metadata_.assign(meta.bytes(nf::kMetaUserData),
                        meta.bytes(nf::kMetaUserData) + user_len);
  return tree;
}

Status BPlusTreeMut::Flush() {
  XKS_ASSIGN_OR_RETURN(MutPageRef meta, pool_->FetchMut(0));
  Page& page = meta.page();
  page.Zero();
  page.WriteU32(nf::kMetaMagic, nf::kMagic);
  page.WriteU32(nf::kMetaVersion, nf::kVersion);
  page.WriteU32(nf::kMetaRoot, root_);
  page.WriteU32(nf::kMetaHeight, height_);
  page.WriteU64(nf::kMetaEntryCount, entry_count_);
  page.WriteU32(nf::kMetaFirstLeaf, first_leaf_);
  if (nf::kMetaUserData + metadata_.size() > kPageSize) {
    return Status::InvalidArgument("B+tree metadata blob too large");
  }
  page.WriteU32(nf::kMetaUserLen, static_cast<uint32_t>(metadata_.size()));
  if (!metadata_.empty()) {
    std::memcpy(page.bytes(nf::kMetaUserData), metadata_.data(),
                metadata_.size());
  }
  meta.Release();
  return pool_->FlushAll();
}

Result<PageId> BPlusTreeMut::DescendToLeaf(
    std::string_view key, std::vector<PathStep>* path,
    std::optional<std::string>* upper) const {
  PageId cur = root_;
  for (uint32_t level = height_; level > 1; --level) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(cur));
    const nf::NodeView node(ref.page());
    if (node.IsLeaf()) {
      return Status::Corruption("unexpected leaf above leaf level");
    }
    const size_t idx = node.UpperBound(key);
    if (path != nullptr) path->push_back(PathStep{cur, idx});
    // A deeper separator lies inside its parent's range, so the last one
    // seen on the way down is the tightest bound.
    if (upper != nullptr && idx < node.count()) upper->emplace(node.Key(idx));
    cur = node.Child(idx);
  }
  return cur;
}

Status BPlusTreeMut::WriteNode(PageId page_id,
                               const nf::ParsedNode& node) {
  XKS_ASSIGN_OR_RETURN(MutPageRef ref, pool_->FetchMut(page_id));
  node.WriteTo(&ref.page());
  return Status::OK();
}

Status BPlusTreeMut::Apply(const std::vector<Edit>& edits) {
  for (size_t i = 0; i < edits.size(); ++i) {
    const Edit& edit = edits[i];
    if (i > 0 && CompareBytes(edits[i - 1].key, edit.key) >= 0) {
      return Status::InvalidArgument("edits must be sorted by unique key");
    }
    if (edit.erase) {
      XKS_ASSIGN_OR_RETURN(const bool present, Contains(edit.key));
      if (!present) return Status::NotFound("key not present");
    } else if (nf::EntrySize(edit.key, edit.value) > nf::kNodeCapacity) {
      return Status::InvalidArgument("entry too large for a page");
    }
  }

  size_t next = 0;
  while (next < edits.size()) {
    std::vector<PathStep> path;
    std::optional<std::string> upper;
    PageId leaf_id;
    nf::ParsedNode leaf;
    if (root_ == kInvalidPage) {
      // Empty tree: the edits start a root leaf (all are puts: every
      // delete was found above).
      XKS_ASSIGN_OR_RETURN(MutPageRef page, pool_->NewPage());
      leaf_id = page.id();
      root_ = leaf_id;
      first_leaf_ = leaf_id;
      height_ = 1;
    } else {
      XKS_ASSIGN_OR_RETURN(leaf_id,
                           DescendToLeaf(edits[next].key, &path, &upper));
      XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
      XKS_ASSIGN_OR_RETURN(leaf, nf::ParsedNode::ReadFrom(ref.page()));
    }

    // Merge the run of edits below the leaf's upper bound.
    std::vector<std::pair<std::string, std::string>> old =
        std::move(leaf.entries);
    leaf.entries.clear();
    leaf.entries.reserve(old.size() + 1);
    size_t j = 0;
    for (; next < edits.size() &&
           (!upper || CompareBytes(edits[next].key, *upper) < 0);
         ++next) {
      const Edit& edit = edits[next];
      while (j < old.size() && CompareBytes(old[j].first, edit.key) < 0) {
        leaf.entries.push_back(std::move(old[j++]));
      }
      const bool hit = j < old.size() && old[j].first == edit.key;
      if (hit) ++j;
      if (edit.erase) {
        if (!hit) return Status::NotFound("key not present");
        --entry_count_;
      } else {
        leaf.entries.emplace_back(edit.key, edit.value);
        if (!hit) ++entry_count_;
      }
    }
    while (j < old.size()) leaf.entries.push_back(std::move(old[j++]));

    if (leaf.entries.empty()) {
      XKS_RETURN_NOT_OK(UnlinkLeaf(leaf_id, leaf, std::move(path)));
    } else if (leaf.SerializedSize() <= kPageSize) {
      XKS_RETURN_NOT_OK(WriteNode(leaf_id, leaf));
    } else {
      XKS_RETURN_NOT_OK(SplitLeaf(leaf_id, std::move(leaf), std::move(path)));
    }
  }
  return Status::OK();
}

Status BPlusTreeMut::Put(std::string_view key, std::string_view value) {
  return Apply({Edit{std::string(key), std::string(value), false}});
}

Status BPlusTreeMut::Delete(std::string_view key) {
  return Apply({Edit{std::string(key), std::string(), true}});
}

Status BPlusTreeMut::SplitLeaf(PageId page_id, nf::ParsedNode node,
                               std::vector<PathStep> path) {
  const std::vector<size_t> starts = SplitStarts(node.entries);
  std::vector<PageId> ids = {page_id};
  for (size_t p = 1; p < starts.size(); ++p) {
    XKS_ASSIGN_OR_RETURN(MutPageRef page, pool_->NewPage());
    ids.push_back(page.id());
  }
  // Write the parts as one run of the sibling chain.
  std::vector<std::string> separators;
  for (size_t p = 0; p < starts.size(); ++p) {
    nf::ParsedNode part;
    part.leaf = true;
    const size_t end =
        p + 1 < starts.size() ? starts[p + 1] : node.entries.size();
    part.entries.assign(
        std::make_move_iterator(node.entries.begin() +
                                static_cast<long>(starts[p])),
        std::make_move_iterator(node.entries.begin() +
                                static_cast<long>(end)));
    part.link_b = p == 0 ? node.link_b : ids[p - 1];
    part.link_a = p + 1 < ids.size() ? ids[p + 1] : node.link_a;
    if (p > 0) separators.push_back(part.entries.front().first);
    XKS_RETURN_NOT_OK(WriteNode(ids[p], part));
  }
  if (node.link_a != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef next_ref, pool_->FetchMut(node.link_a));
    next_ref.page().WriteU32(nf::kNodeLinkB, ids.back());
  }
  // Each separator goes into the parent right after its left neighbour.
  // An insert may split the parents, so every separator after the first
  // re-descends for a fresh path; it routes to that left neighbour.
  for (size_t p = 1; p < ids.size(); ++p) {
    if (p > 1) {
      path.clear();
      XKS_RETURN_NOT_OK(DescendToLeaf(separators[p - 1], &path).status());
    }
    XKS_RETURN_NOT_OK(
        InsertIntoParent(std::move(path), std::move(separators[p - 1]),
                         ids[p]));
  }
  return Status::OK();
}

Status BPlusTreeMut::InsertIntoParent(std::vector<PathStep> path,
                                      std::string separator,
                                      PageId right_child) {
  if (path.empty()) {
    // Split reached the root: grow the tree by one level.
    XKS_ASSIGN_OR_RETURN(MutPageRef page, pool_->NewPage());
    nf::ParsedNode new_root;
    new_root.leaf = false;
    new_root.link_a = root_;
    new_root.entries.emplace_back(std::move(separator),
                                  nf::ParsedNode::EncodeChild(right_child));
    new_root.WriteTo(&page.page());
    root_ = page.id();
    ++height_;
    return Status::OK();
  }

  const PathStep step = path.back();
  path.pop_back();
  nf::ParsedNode parent;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(step.page));
    XKS_ASSIGN_OR_RETURN(parent, nf::ParsedNode::ReadFrom(ref.page()));
  }
  // The split child sat at children index `child_idx`; its new right
  // sibling becomes children index child_idx + 1, i.e. entries index
  // child_idx.
  parent.entries.insert(
      parent.entries.begin() + static_cast<long>(step.child_idx),
      {std::move(separator), nf::ParsedNode::EncodeChild(right_child)});
  if (parent.SerializedSize() <= kPageSize) {
    return WriteNode(step.page, parent);
  }
  return SplitInternal(step.page, std::move(parent), std::move(path));
}

Status BPlusTreeMut::SplitInternal(PageId page_id, nf::ParsedNode node,
                                   std::vector<PathStep> path) {
  assert(node.entries.size() >= 2);
  const size_t mid = SplitStarts(node.entries)[1];

  // The median separator moves up; the right node's leftmost child is
  // the median's child.
  std::string up_key = node.entries[mid].first;
  nf::ParsedNode right;
  right.leaf = false;
  right.link_a = node.ChildAt(mid + 1);
  right.entries.assign(node.entries.begin() + static_cast<long>(mid) + 1,
                       node.entries.end());
  node.entries.resize(mid);

  XKS_ASSIGN_OR_RETURN(MutPageRef right_page, pool_->NewPage());
  const PageId right_id = right_page.id();
  right.WriteTo(&right_page.page());
  right_page.Release();
  XKS_RETURN_NOT_OK(WriteNode(page_id, node));
  return InsertIntoParent(std::move(path), std::move(up_key), right_id);
}

Status BPlusTreeMut::UnlinkLeaf(PageId page_id, const nf::ParsedNode& node,
                                std::vector<PathStep> path) {
  // The page itself is not recycled; see the class comment.
  if (node.link_b != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef prev, pool_->FetchMut(node.link_b));
    prev.page().WriteU32(nf::kNodeLinkA, node.link_a);
  }
  if (node.link_a != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef next, pool_->FetchMut(node.link_a));
    next.page().WriteU32(nf::kNodeLinkB, node.link_b);
  }
  if (first_leaf_ == page_id) first_leaf_ = node.link_a;

  if (path.empty()) {
    // The root leaf emptied: the tree is empty again.
    root_ = kInvalidPage;
    first_leaf_ = kInvalidPage;
    height_ = 0;
    return Status::OK();
  }
  return RemoveFromParent(std::move(path));
}

Status BPlusTreeMut::RemoveFromParent(std::vector<PathStep> path) {
  const PathStep step = path.back();
  path.pop_back();
  nf::ParsedNode parent;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(step.page));
    XKS_ASSIGN_OR_RETURN(parent, nf::ParsedNode::ReadFrom(ref.page()));
  }
  if (step.child_idx == 0) {
    if (parent.entries.empty()) {
      // This internal node lost its only child; remove it as well.
      if (path.empty()) {
        root_ = kInvalidPage;
        height_ = 0;
        return Status::OK();
      }
      return RemoveFromParent(std::move(path));
    }
    // Promote the first entry's child to the leftmost slot.
    parent.link_a = parent.ChildAt(1);
    parent.entries.erase(parent.entries.begin());
  } else {
    parent.entries.erase(parent.entries.begin() +
                         static_cast<long>(step.child_idx) - 1);
  }
  XKS_RETURN_NOT_OK(WriteNode(step.page, parent));
  if (path.empty()) {
    return CollapseRoot();
  }
  return Status::OK();
}

Status BPlusTreeMut::CollapseRoot() {
  // A root with a single child routes everything through it; shrink the
  // tree until the root has at least two children or is a leaf.
  while (height_ > 1) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(root_));
    const nf::NodeView node(ref.page());
    if (node.IsLeaf() || node.count() > 0) break;
    const PageId only_child = node.link_a();
    ref.Release();
    root_ = only_child;
    --height_;
  }
  return Status::OK();
}

Result<bool> BPlusTreeMut::FindFloor(std::string_view key,
                                     std::string* found_key,
                                     std::string* found_value) const {
  if (root_ == kInvalidPage) return false;
  XKS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key, nullptr));
  // The routed leaf holds every key in its range; if nothing there is
  // <= key, the floor ends the previous leaf.
  for (; leaf_id != kInvalidPage;) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    const nf::NodeView node(ref.page());
    const size_t ub = node.UpperBound(key);
    if (ub > 0) {
      std::string_view k, v;
      if (!node.Entry(ub - 1, &k, &v)) {
        return Status::Corruption("malformed leaf entry");
      }
      found_key->assign(k);
      if (found_value != nullptr) found_value->assign(v);
      return true;
    }
    leaf_id = node.link_b();
  }
  return false;
}

Result<bool> BPlusTreeMut::FindCeil(std::string_view key,
                                    std::string* found_key,
                                    std::string* found_value) const {
  if (root_ == kInvalidPage) return false;
  XKS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key, nullptr));
  for (; leaf_id != kInvalidPage;) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    const nf::NodeView node(ref.page());
    const size_t lb = node.LowerBound(key);
    if (lb < node.count()) {
      std::string_view k, v;
      if (!node.Entry(lb, &k, &v)) {
        return Status::Corruption("malformed leaf entry");
      }
      found_key->assign(k);
      if (found_value != nullptr) found_value->assign(v);
      return true;
    }
    leaf_id = node.link_a();
  }
  return false;
}

Result<std::string> BPlusTreeMut::Get(std::string_view key) const {
  if (root_ == kInvalidPage) {
    return Status::NotFound("key not present");
  }
  XKS_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
  const nf::NodeView node(ref.page());
  const size_t pos = node.LowerBound(key);
  std::string_view k, v;
  if (pos < node.count() && node.Entry(pos, &k, &v) &&
      CompareBytes(k, key) == 0) {
    return std::string(v);
  }
  return Status::NotFound("key not present");
}

Result<bool> BPlusTreeMut::Contains(std::string_view key) const {
  if (root_ == kInvalidPage) return false;
  XKS_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
  const nf::NodeView node(ref.page());
  const size_t pos = node.LowerBound(key);
  std::string_view k, v;
  return pos < node.count() && node.Entry(pos, &k, &v) &&
         CompareBytes(k, key) == 0;
}

}  // namespace xksearch
