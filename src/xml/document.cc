#include "xml/document.h"

#include <algorithm>
#include <cassert>

namespace xksearch {

const std::vector<std::pair<std::string, std::string>> Document::kNoAttrs;

uint32_t Document::InternTag(std::string_view tag) {
  auto it = tag_ids_.find(tag);
  if (it != tag_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(tag_names_.size());
  tag_names_.emplace_back(tag);
  tag_ids_.emplace(tag_names_.back(), id);
  return id;
}

NodeId Document::CreateRoot(std::string_view tag) {
  assert(nodes_.empty() && "root must be the first node");
  Node root{};
  root.kind = static_cast<uint32_t>(NodeKind::kElement);
  root.payload = InternTag(tag);
  root.parent = root.first_child = root.next_sibling = root.last_child =
      kInvalidNode;
  nodes_.push_back(root);
  return 0;
}

void Document::LinkChild(NodeId parent, NodeId child) {
  Node& p = nodes_[parent];
  Node& c = nodes_[child];
  c.parent = parent;
  c.level = p.level + 1;
  if (p.last_child == kInvalidNode) {
    c.ordinal = 0;
    p.first_child = child;
  } else {
    c.ordinal = nodes_[p.last_child].ordinal + 1;
    nodes_[p.last_child].next_sibling = child;
  }
  p.last_child = child;
  if (c.level > max_level_) max_level_ = c.level;
}

NodeId Document::AppendNode(NodeId parent, NodeKind kind, uint32_t payload) {
  assert(parent < nodes_.size());
  assert(IsElement(parent) && "text nodes cannot have children");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node{};
  node.kind = static_cast<uint32_t>(kind);
  node.payload = payload;
  node.first_child = node.next_sibling = node.last_child = kInvalidNode;
  nodes_.push_back(node);
  LinkChild(parent, id);
  return id;
}

NodeId Document::AppendElement(NodeId parent, std::string_view tag) {
  return AppendNode(parent, NodeKind::kElement, InternTag(tag));
}

NodeId Document::AppendText(NodeId parent, std::string_view text) {
  const uint32_t payload = static_cast<uint32_t>(text_ends_.size());
  text_.append(text);
  text_ends_.push_back(text_.size());
  return AppendNode(parent, NodeKind::kText, payload);
}

void Document::AddAttribute(NodeId element, std::string_view name,
                            std::string_view value) {
  assert(IsElement(element));
  attrs_[element].emplace_back(std::string(name), std::string(value));
}

NodeId Document::AppendDocument(NodeId parent, const Document& src) {
  assert(parent < nodes_.size() && IsElement(parent));
  assert(!src.empty());
  assert(nodes_.size() + src.nodes_.size() < kInvalidNode);
  const NodeId offset = static_cast<NodeId>(nodes_.size());
  const uint32_t first_text = static_cast<uint32_t>(text_ends_.size());
  const uint64_t first_byte = text_.size();
  const uint32_t depth = nodes_[parent].level + 1;
  std::vector<uint32_t> tags(src.tag_names_.size());
  for (size_t t = 0; t < tags.size(); ++t) {
    tags[t] = InternTag(src.tag_names_[t]);
  }
  const auto shift = [offset](NodeId id) {
    return id == kInvalidNode ? kInvalidNode : id + offset;
  };
  for (const Node& from : src.nodes_) {
    Node node = from;
    node.level = from.level + depth;
    node.payload = static_cast<NodeKind>(from.kind) == NodeKind::kText
                       ? from.payload + first_text
                       : tags[from.payload];
    node.parent = shift(from.parent);
    node.first_child = shift(from.first_child);
    node.next_sibling = shift(from.next_sibling);
    node.last_child = shift(from.last_child);
    nodes_.push_back(node);
  }
  LinkChild(parent, offset);
  max_level_ = std::max(max_level_, src.max_level_ + depth);
  text_.append(src.text_);
  for (const uint64_t end : src.text_ends_) {
    text_ends_.push_back(end + first_byte);
  }
  for (const auto& [element, attrs] : src.attrs_) {
    attrs_.emplace(element + offset, attrs);
  }
  return offset;
}

void Document::Reserve(size_t nodes, size_t texts, size_t text_bytes) {
  nodes_.reserve(nodes_.size() + nodes);
  text_ends_.reserve(text_ends_.size() + texts);
  text_.reserve(text_.size() + text_bytes);
}

void Document::ShrinkToFit() {
  nodes_.shrink_to_fit();
  text_ends_.shrink_to_fit();
  text_.shrink_to_fit();
}

Document Document::Clone() const {
  Document copy;
  copy.nodes_ = nodes_;
  copy.tag_names_ = tag_names_;
  copy.tag_ids_ = tag_ids_;
  copy.text_ = text_;
  copy.text_ends_ = text_ends_;
  copy.attrs_ = attrs_;
  copy.max_level_ = max_level_;
  return copy;
}

size_t Document::memory_bytes() const {
  // A string's heap block, if it outgrew the inline buffer.
  const auto heap = [](const std::string& s) {
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
  };
  size_t bytes = nodes_.capacity() * sizeof(Node) + text_.capacity() +
                 text_ends_.capacity() * sizeof(uint64_t) +
                 tag_names_.capacity() * sizeof(std::string);
  for (const std::string& tag : tag_names_) bytes += 2 * heap(tag);
  // Hash nodes: the stored pair plus about two words of node overhead.
  bytes += tag_ids_.size() *
               (sizeof(std::pair<const std::string, uint32_t>) +
                2 * sizeof(void*)) +
           tag_ids_.bucket_count() * sizeof(void*);
  bytes += attrs_.bucket_count() * sizeof(void*);
  for (const auto& [element, attrs] : attrs_) {
    bytes += sizeof(decltype(attrs_)::value_type) + sizeof(void*) +
             attrs.capacity() * sizeof(attrs[0]);
    for (const auto& [name, value] : attrs) bytes += heap(name) + heap(value);
  }
  return bytes;
}

DeweyId Document::DeweyOf(NodeId n) const {
  assert(n < nodes_.size());
  DeweyId id;
  for (uint32_t i = 0; i <= nodes_[n].level; ++i) id.Append(0);
  NodeId cur = n;
  for (size_t i = id.depth(); i-- > 0;) {
    id.set_component(i, nodes_[cur].ordinal);
    cur = nodes_[cur].parent;
  }
  return id;
}

Result<NodeId> Document::FindByDewey(const DeweyId& id) const {
  if (nodes_.empty() || id.empty() || id.component(0) != 0) {
    return Status::NotFound("no node with Dewey number " + id.ToString());
  }
  NodeId cur = root();
  for (size_t i = 1; i < id.depth(); ++i) {
    const uint32_t ord = id.component(i);
    if (ord >= child_count(cur)) {
      return Status::NotFound("no node with Dewey number " + id.ToString());
    }
    cur = nodes_[cur].first_child;
    for (uint32_t k = 0; k < ord; ++k) cur = nodes_[cur].next_sibling;
  }
  return cur;
}

std::string Document::DirectText(NodeId n) const {
  std::string out;
  for (NodeId c : children(n)) {
    if (IsText(c)) {
      if (!out.empty()) out += ' ';
      out += text(c);
    }
  }
  return out;
}

}  // namespace xksearch
