#include "xml/document.h"

#include <cassert>

namespace xksearch {

const std::vector<std::pair<std::string, std::string>> Document::kNoAttrs;

uint32_t Document::InternTag(std::string_view tag) {
  auto it = tag_ids_.find(std::string(tag));
  if (it != tag_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(tag_names_.size());
  tag_names_.emplace_back(tag);
  tag_ids_.emplace(std::string(tag), id);
  return id;
}

NodeId Document::CreateRoot(std::string_view tag) {
  assert(nodes_.empty() && "root must be the first node");
  nodes_.push_back(Node{NodeKind::kElement, /*level=*/0, /*ordinal=*/0,
                        InternTag(tag), kInvalidNode, {}});
  return 0;
}

NodeId Document::AppendNode(NodeId parent, NodeKind kind, uint32_t payload) {
  assert(parent < nodes_.size());
  assert(nodes_[parent].kind == NodeKind::kElement &&
         "text nodes cannot have children");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node& p = nodes_[parent];
  const uint32_t ordinal = static_cast<uint32_t>(p.children.size());
  const uint32_t level = p.level + 1;
  p.children.push_back(id);
  nodes_.push_back(Node{kind, level, ordinal, payload, parent, {}});
  if (level > max_level_) max_level_ = level;
  return id;
}

NodeId Document::AppendElement(NodeId parent, std::string_view tag) {
  return AppendNode(parent, NodeKind::kElement, InternTag(tag));
}

NodeId Document::AppendText(NodeId parent, std::string_view text) {
  const uint32_t payload = static_cast<uint32_t>(texts_.size());
  texts_.emplace_back(text);
  return AppendNode(parent, NodeKind::kText, payload);
}

void Document::AddAttribute(NodeId element, std::string_view name,
                            std::string_view value) {
  assert(IsElement(element));
  attrs_[element].emplace_back(std::string(name), std::string(value));
}

Document Document::Clone() const {
  Document copy;
  copy.nodes_ = nodes_;
  copy.tag_names_ = tag_names_;
  copy.tag_ids_ = tag_ids_;
  copy.texts_ = texts_;
  copy.attrs_ = attrs_;
  copy.max_level_ = max_level_;
  return copy;
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
    const Node& node = nodes_[cur];
    if (ord >= node.children.size()) {
      return Status::NotFound("no node with Dewey number " + id.ToString());
    }
    cur = node.children[ord];
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
