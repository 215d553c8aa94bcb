#ifndef XKSEARCH_DEWEY_DEWEY_ID_H_
#define XKSEARCH_DEWEY_DEWEY_ID_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>

#include "common/result.h"

namespace xksearch {

/// \brief A non-owning view of a Dewey number: a span of components.
///
/// The hot match path (packed posting lists, block binary search, gallop
/// probes) compares ids that live inside a decode scratch buffer or a
/// flat skip-table arena; viewing them through DeweyView keeps every
/// comparison, common-prefix and ancestry check a copy-free walk over
/// those components — a DeweyId is materialized only for the one id a
/// match operation actually returns.
class DeweyView {
 public:
  constexpr DeweyView() = default;
  constexpr DeweyView(const uint32_t* data, size_t size)
      : data_(data), size_(size) {}

  constexpr const uint32_t* data() const { return data_; }
  constexpr size_t depth() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr uint32_t component(size_t i) const { return data_[i]; }
  constexpr uint32_t back() const { return data_[size_ - 1]; }

  /// Three-way document-order comparison, charging one component
  /// comparison per step to `cmp_count` exactly like DeweyId::Compare.
  int Compare(DeweyView other, uint64_t* cmp_count = nullptr) const {
    const size_t n = size_ < other.size_ ? size_ : other.size_;
    for (size_t i = 0; i < n; ++i) {
      if (cmp_count != nullptr) ++*cmp_count;
      if (data_[i] != other.data_[i]) {
        return data_[i] < other.data_[i] ? -1 : 1;
      }
    }
    if (cmp_count != nullptr) ++*cmp_count;
    if (size_ == other.size_) return 0;
    return size_ < other.size_ ? -1 : 1;
  }

  size_t CommonPrefixLength(DeweyView other) const {
    const size_t n = size_ < other.size_ ? size_ : other.size_;
    size_t i = 0;
    while (i < n && data_[i] == other.data_[i]) ++i;
    return i;
  }

  bool IsAncestorOrSelf(DeweyView other) const {
    if (size_ > other.size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }

  /// First `n` components (n <= depth()); still non-owning.
  constexpr DeweyView Prefix(size_t n) const { return DeweyView(data_, n); }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief A Dewey number identifying a node in a labeled ordered tree.
///
/// The Dewey number of a node is the Dewey number of its parent followed by
/// the node's ordinal among its siblings; the root of a document is `0`.
/// Dewey order is document (preorder) order: component-wise numeric
/// comparison with a proper prefix ordering before its extensions, e.g.
/// 0.1 < 0.1.0 < 0.1.1 < 0.2 (paper Section 2).
///
/// The empty Dewey number is valid and acts as a virtual super-root: it is
/// an ancestor of every id and the identity element of Lca().
///
/// Storage is a flat component array. Up to kInlineCapacity components
/// live inside the object itself, so building, copying and freeing a
/// shallow id (almost every answer) touches no heap; a deeper
/// id keeps its components in one heap block. Shortening an id never
/// gives a heap block back, so a reused id allocates only when it grows
/// past the deepest id it has held.
class DeweyId {
 public:
  /// Components held without a heap block: a measured depth histogram
  /// (EXPERIMENTS.md X21) puts 99.7% or more of the benchmark's answer
  /// ids at depth 6 or less, and six components are what fits beside
  /// the size and capacity in 32 bytes.
  static constexpr size_t kInlineCapacity = 6;

  DeweyId() = default;
  explicit DeweyId(std::span<const uint32_t> components) {
    AssignFrom(DeweyView(components.data(), components.size()));
  }
  DeweyId(std::initializer_list<uint32_t> components) {
    AssignFrom(DeweyView(components.begin(), components.size()));
  }
  DeweyId(const DeweyId& other) { AssignFrom(other.view()); }
  DeweyId(DeweyId&& other) noexcept { TakeFrom(&other); }
  DeweyId& operator=(const DeweyId& other) {
    AssignFrom(other.view());  // self-assignment copies onto itself
    return *this;
  }
  DeweyId& operator=(DeweyId&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(&other);
    }
    return *this;
  }
  ~DeweyId() { Release(); }

  /// The document root, Dewey number "0".
  static DeweyId Root() { return DeweyId({0}); }

  /// Parses "0.1.12" (or "" for the empty id). Rejects malformed input.
  static Result<DeweyId> Parse(const std::string& text);

  /// Materializes a view into an owning id; allocates only for an id
  /// deeper than kInlineCapacity.
  static DeweyId FromView(DeweyView view) {
    DeweyId id;
    id.AssignFrom(view);
    return id;
  }

  /// Copies a view's components into this id, reusing its storage when
  /// the view fits. The view may alias this id's own components (a
  /// prefix of view(), say). The match loops return each result through
  /// a caller-reused DeweyId, so this keeps the steady-state match path
  /// allocation-free whatever the depth.
  void AssignFrom(DeweyView view) {
    const size_t n = view.depth();
    if (n > capacity_) {
      Regrow(n, view);
    } else if (n != 0) {
      std::memmove(data(), view.data(), n * sizeof(uint32_t));
    }
    size_ = static_cast<uint32_t>(n);
  }

  /// Shortens this id in place to its first `n` components (n <= depth()),
  /// i.e. replaces it with its ancestor-or-self at depth `n`. Keeps the
  /// storage, so an SLCA chain step — which only ever replaces x by one
  /// of its prefixes — allocates nothing.
  void Truncate(size_t n) {
    assert(n <= size_);
    size_ = static_cast<uint32_t>(n);
  }

  /// Appends one component (the id becomes its own child), reusing the
  /// storage's capacity.
  void Append(uint32_t component) {
    if (size_ == capacity_) Regrow(2 * size_, view());
    data()[size_++] = component;
  }

  /// Overwrites component `i` (i < depth()) in place.
  void set_component(size_t i, uint32_t value) {
    assert(i < size_);
    data()[i] = value;
  }

  /// Non-owning view of the components; valid while *this is alive,
  /// unmodified and not moved (inline components move with the object).
  DeweyView view() const { return DeweyView(data(), size_); }

  std::span<const uint32_t> components() const { return {data(), size_}; }
  size_t depth() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t component(size_t i) const { return data()[i]; }
  uint32_t back() const { return data()[size_ - 1]; }

  /// Three-way document-order comparison: negative if *this precedes
  /// `other`, 0 if equal, positive otherwise. If `cmp_count` is non-null it
  /// is incremented by the number of component comparisons performed, which
  /// is how the paper charges O(d) per Dewey comparison.
  int Compare(const DeweyId& other, uint64_t* cmp_count = nullptr) const {
    return view().Compare(other.view(), cmp_count);
  }

  /// True iff *this is an ancestor of `other` (proper prefix).
  bool IsAncestorOf(const DeweyId& other) const {
    return size_ < other.size_ && view().IsAncestorOrSelf(other.view());
  }
  /// True iff *this is `other` or an ancestor of it (paper's `<=a`).
  bool IsAncestorOrSelf(const DeweyId& other) const {
    return view().IsAncestorOrSelf(other.view());
  }

  /// Lowest common ancestor: the longest common prefix (paper Section 2).
  DeweyId Lca(const DeweyId& other) const {
    return Prefix(CommonPrefixLength(other));
  }

  /// Number of leading components shared with `other`.
  size_t CommonPrefixLength(const DeweyId& other) const {
    return view().CommonPrefixLength(other.view());
  }

  /// Parent id; the empty id's parent is itself (empty).
  DeweyId Parent() const { return empty() ? DeweyId() : Prefix(size_ - 1); }

  /// Id of the `ordinal`-th child.
  DeweyId Child(uint32_t ordinal) const;

  /// The immediate next sibling (last component + 1); the paper's "uncle"
  /// construction uses this to bound the right part of a subtree.
  /// Precondition: non-empty.
  DeweyId NextSibling() const;

  /// Truncates to the first `n` components (n <= depth()).
  DeweyId Prefix(size_t n) const {
    assert(n <= size_);
    return FromView(view().Prefix(n));
  }

  /// "0.1.12"; empty id renders as "".
  std::string ToString() const;

  friend bool operator==(const DeweyId& a, const DeweyId& b) {
    return std::ranges::equal(a.components(), b.components());
  }
  friend bool operator!=(const DeweyId& a, const DeweyId& b) {
    return !(a == b);
  }
  friend bool operator<(const DeweyId& a, const DeweyId& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const DeweyId& a, const DeweyId& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const DeweyId& a, const DeweyId& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const DeweyId& a, const DeweyId& b) {
    return a.Compare(b) >= 0;
  }

  struct Hash {
    size_t operator()(const DeweyId& id) const {
      size_t h = 0x811c9dc5;
      for (uint32_t c : id.components()) {
        h ^= c;
        h *= 0x01000193;
        h ^= h >> 17;
      }
      return h;
    }
  };

 private:
  bool on_heap() const { return capacity_ > kInlineCapacity; }
  uint32_t* data() { return on_heap() ? heap_ : inline_; }
  const uint32_t* data() const { return on_heap() ? heap_ : inline_; }

  /// Moves to a new heap block of `capacity` slots holding `keep`'s
  /// components (`keep` may alias the old storage).
  void Regrow(size_t capacity, DeweyView keep);
  void Release() {
    if (on_heap()) delete[] heap_;
  }
  /// Takes `other`'s components (its heap block, if any) and leaves it
  /// empty and inline. *this must hold no heap block.
  void TakeFrom(DeweyId* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->on_heap()) {
      heap_ = other->heap_;
    } else {
      std::copy_n(other->inline_, size_, inline_);
    }
    other->size_ = 0;
    other->capacity_ = kInlineCapacity;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  union {
    uint32_t inline_[kInlineCapacity];
    uint32_t* heap_ = nullptr;
  };
};

static_assert(sizeof(DeweyId) <= 32, "DeweyId must stay within 32 bytes");

}  // namespace xksearch

#endif  // XKSEARCH_DEWEY_DEWEY_ID_H_
