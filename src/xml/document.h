#ifndef XKSEARCH_XML_DOCUMENT_H_
#define XKSEARCH_XML_DOCUMENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/string_hash.h"
#include "dewey/dewey_id.h"

namespace xksearch {

/// Index of a node inside a Document's arena.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class NodeKind : uint8_t {
  kElement = 0,
  kText = 1,
};

/// \brief An XML document as the labeled ordered tree of the paper.
///
/// Nodes live in one flat array of fixed-size records linked by parent,
/// first-child, next-sibling and last-child ids; element tags are
/// interned and all text sits in one arena. A node's Dewey number is not
/// materialized per node — it is reconstructed on demand from parent
/// links and sibling ordinals, which keeps a DBLP-scale document compact.
/// Node 0 is always the document element (Dewey number "0").
class Document {
 private:
  struct Node;

 public:
  /// \brief The children of one node, in sibling order: a forward range
  /// over the sibling chain.
  class ChildRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = NodeId;

      iterator() = default;
      NodeId operator*() const { return cur_; }
      iterator& operator++() {
        cur_ = nodes_[cur_].next_sibling;
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const {
        return cur_ == other.cur_;
      }

     private:
      friend class ChildRange;
      iterator(const Node* nodes, NodeId cur) : nodes_(nodes), cur_(cur) {}

      const Node* nodes_ = nullptr;
      NodeId cur_ = kInvalidNode;
    };

    iterator begin() const { return iterator(nodes_, first_); }
    /// Every range ends at the same iterator.
    static iterator end() { return iterator(); }
    bool empty() const { return first_ == kInvalidNode; }

   private:
    friend class Document;
    ChildRange(const Node* nodes, NodeId first)
        : nodes_(nodes), first_(first) {}

    const Node* nodes_;
    NodeId first_;
  };

  Document() = default;

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Deep copy. Documents are move-only so a copy is never made by
  /// accident; callers that genuinely need two owners (e.g. indexing the
  /// same document standalone and inside a sharded collection) ask for
  /// one explicitly.
  Document Clone() const;

  /// Creates the root element. Must be the first node created.
  NodeId CreateRoot(std::string_view tag);

  /// Appends a child element under `parent`.
  NodeId AppendElement(NodeId parent, std::string_view tag);

  /// Appends a text node under `parent`.
  NodeId AppendText(NodeId parent, std::string_view text);

  /// Adds an attribute to an element.
  void AddAttribute(NodeId element, std::string_view name,
                    std::string_view value);

  /// Appends the whole of `src` (non-empty) as the last child subtree of
  /// element `parent`, and returns the id of its root here. Node ids,
  /// levels and text offsets shift by a constant and tags are remapped
  /// once, so the copy is one pass over `src`'s arrays.
  NodeId AppendDocument(NodeId parent, const Document& src);

  /// Makes room for `nodes` more nodes, of which `texts` are text nodes
  /// holding `text_bytes` bytes, so appending them does not regrow.
  void Reserve(size_t nodes, size_t texts, size_t text_bytes);

  /// Gives back the arrays' spare capacity. Whoever finishes building a
  /// document calls this once, so a held document costs its size.
  void ShrinkToFit();

  size_t node_count() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return 0; }

  NodeKind kind(NodeId n) const {
    return static_cast<NodeKind>(nodes_[n].kind);
  }
  bool IsElement(NodeId n) const { return kind(n) == NodeKind::kElement; }
  bool IsText(NodeId n) const { return kind(n) == NodeKind::kText; }

  /// Tag of an element node.
  std::string_view tag(NodeId n) const { return tag_names_[nodes_[n].payload]; }
  /// Content of a text node.
  std::string_view text(NodeId n) const {
    const uint32_t t = nodes_[n].payload;
    const uint64_t begin = t == 0 ? 0 : text_ends_[t - 1];
    return std::string_view(text_.data() + begin, text_ends_[t] - begin);
  }

  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  /// Ordinal of the node among its siblings (= last Dewey component).
  uint32_t ordinal(NodeId n) const { return nodes_[n].ordinal; }
  ChildRange children(NodeId n) const {
    return ChildRange(nodes_.data(), nodes_[n].first_child);
  }
  size_t child_count(NodeId n) const {
    const NodeId last = nodes_[n].last_child;
    return last == kInvalidNode ? 0 : size_t{nodes_[last].ordinal} + 1;
  }
  uint32_t level(NodeId n) const { return nodes_[n].level; }

  const std::vector<std::pair<std::string, std::string>>& attributes(
      NodeId n) const {
    const auto it = attrs_.find(n);
    return it == attrs_.end() ? kNoAttrs : it->second;
  }

  /// Reconstructs the Dewey number of `n` from parent links; O(depth).
  DeweyId DeweyOf(NodeId n) const;

  /// Locates the node with Dewey number `id`; kNotFound if no such node.
  /// Walks each level's sibling chain, so O(sum of the ordinals).
  Result<NodeId> FindByDewey(const DeweyId& id) const;

  /// Maximum node depth (root = level 0); 0 for an empty document.
  uint32_t max_depth() const { return max_level_; }

  /// Concatenation of all text directly under element `n` (not recursive),
  /// with pieces separated by single spaces.
  std::string DirectText(NodeId n) const;

  /// Number of distinct element tags.
  size_t tag_count() const { return tag_names_.size(); }

  /// Number of text nodes, and the bytes of text they hold.
  size_t text_count() const { return text_ends_.size(); }
  size_t text_bytes() const { return text_.size(); }

  /// Resident bytes: node records, text arena and offsets, tags and
  /// attributes (heap blocks at their requested sizes).
  size_t memory_bytes() const;

 private:
  /// One node: 28 bytes whatever its kind or fanout. Links are
  /// kInvalidNode when absent; a text node has no children.
  struct Node {
    uint32_t level : 31;
    uint32_t kind : 1;  // NodeKind
    uint32_t ordinal;
    uint32_t payload;  // index into tag_names_ (element) or text_ends_ (text)
    NodeId parent;
    NodeId first_child;
    NodeId next_sibling;
    NodeId last_child;
  };
  static_assert(sizeof(Node) == 28);

  uint32_t InternTag(std::string_view tag);
  NodeId AppendNode(NodeId parent, NodeKind kind, uint32_t payload);
  /// Links `child`, already in nodes_, as the last child of `parent`.
  void LinkChild(NodeId parent, NodeId child);

  static const std::vector<std::pair<std::string, std::string>> kNoAttrs;

  std::vector<Node> nodes_;
  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      tag_ids_;
  /// All text, back to back; text node t spans
  /// [text_ends_[t - 1], text_ends_[t]) (from 0 for t = 0).
  std::string text_;
  std::vector<uint64_t> text_ends_;
  std::unordered_map<NodeId, std::vector<std::pair<std::string, std::string>>>
      attrs_;
  uint32_t max_level_ = 0;
};

}  // namespace xksearch

#endif  // XKSEARCH_XML_DOCUMENT_H_
