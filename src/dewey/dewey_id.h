#ifndef XKSEARCH_DEWEY_DEWEY_ID_H_
#define XKSEARCH_DEWEY_DEWEY_ID_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/result.h"

namespace xksearch {

/// \brief A non-owning view of a Dewey number: a span of components.
///
/// The hot match path (packed posting lists, block binary search, gallop
/// probes) compares ids that live inside a decode scratch buffer or a
/// flat skip-table arena; viewing them through DeweyView keeps every
/// comparison, common-prefix and ancestry check allocation-free — a
/// DeweyId (and its heap-owned component vector) is materialized only
/// for the one id a match operation actually returns.
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
class DeweyId {
 public:
  DeweyId() = default;
  explicit DeweyId(std::vector<uint32_t> components)
      : components_(std::move(components)) {}
  DeweyId(std::initializer_list<uint32_t> components)
      : components_(components) {}

  /// The document root, Dewey number "0".
  static DeweyId Root() { return DeweyId({0}); }

  /// Parses "0.1.12" (or "" for the empty id). Rejects malformed input.
  static Result<DeweyId> Parse(const std::string& text);

  /// Materializes a view into an owning id (the one allocation a packed
  /// match operation pays, for the id it returns).
  static DeweyId FromView(DeweyView view) {
    return DeweyId(
        std::vector<uint32_t>(view.data(), view.data() + view.depth()));
  }

  /// Copies a view's components into this id, reusing the existing
  /// component buffer's capacity. The match loops return each result
  /// through a caller-reused DeweyId, so this (not FromView) keeps the
  /// steady-state match path entirely allocation-free.
  void AssignFrom(DeweyView view) {
    components_.assign(view.data(), view.data() + view.depth());
  }

  /// Shortens this id in place to its first `n` components (n <= depth()),
  /// i.e. replaces it with its ancestor-or-self at depth `n`. Keeps the
  /// component buffer, so an SLCA chain step — which only ever replaces x
  /// by one of its prefixes — allocates nothing.
  void Truncate(size_t n) {
    assert(n <= components_.size());
    components_.resize(n);
  }

  /// Appends one component (the id becomes its own child), reusing the
  /// component buffer's capacity.
  void Append(uint32_t component) { components_.push_back(component); }

  /// Non-owning view of the components; valid while *this is alive and
  /// unmodified.
  DeweyView view() const {
    return DeweyView(components_.data(), components_.size());
  }

  const std::vector<uint32_t>& components() const { return components_; }
  size_t depth() const { return components_.size(); }
  bool empty() const { return components_.empty(); }
  uint32_t component(size_t i) const { return components_[i]; }
  uint32_t back() const { return components_.back(); }

  /// Three-way document-order comparison: negative if *this precedes
  /// `other`, 0 if equal, positive otherwise. If `cmp_count` is non-null it
  /// is incremented by the number of component comparisons performed, which
  /// is how the paper charges O(d) per Dewey comparison.
  int Compare(const DeweyId& other, uint64_t* cmp_count = nullptr) const;

  /// True iff *this is an ancestor of `other` (proper prefix).
  bool IsAncestorOf(const DeweyId& other) const;
  /// True iff *this is `other` or an ancestor of it (paper's `<=a`).
  bool IsAncestorOrSelf(const DeweyId& other) const;

  /// Lowest common ancestor: the longest common prefix (paper Section 2).
  DeweyId Lca(const DeweyId& other) const;

  /// Number of leading components shared with `other`.
  size_t CommonPrefixLength(const DeweyId& other) const;

  /// Parent id; the empty id's parent is itself (empty).
  DeweyId Parent() const;

  /// Id of the `ordinal`-th child.
  DeweyId Child(uint32_t ordinal) const;

  /// The immediate next sibling (last component + 1); the paper's "uncle"
  /// construction uses this to bound the right part of a subtree.
  /// Precondition: non-empty.
  DeweyId NextSibling() const;

  /// Truncates to the first `n` components (n <= depth()).
  DeweyId Prefix(size_t n) const;

  /// "0.1.12"; empty id renders as "".
  std::string ToString() const;

  friend bool operator==(const DeweyId& a, const DeweyId& b) {
    return a.components_ == b.components_;
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
      for (uint32_t c : id.components_) {
        h ^= c;
        h *= 0x01000193;
        h ^= h >> 17;
      }
      return h;
    }
  };

 private:
  std::vector<uint32_t> components_;
};

}  // namespace xksearch

#endif  // XKSEARCH_DEWEY_DEWEY_ID_H_
