#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>

namespace xksearch {

InvertedIndex InvertedIndex::Build(const Document& doc,
                                   const IndexOptions& options) {
  InvertedIndex index;
  index.options_ = options;
  if (doc.empty()) return index;

  // Iterative preorder walk so document depth cannot overflow the stack:
  // each open element keeps the cursor of its next child to visit, so
  // nodes come out in document order, which keeps every keyword list
  // sorted without a final sort pass.
  std::vector<Document::ChildRange::iterator> stack;
  std::vector<std::string> node_terms;  // scratch, deduplicated per node
  NodeId n = doc.root();
  while (true) {
    const DeweyId id = doc.DeweyOf(n);
    index.level_table_.Observe(id);

    node_terms.clear();
    auto collect = [&](std::string_view tok) {
      node_terms.emplace_back(tok);
    };
    if (doc.IsText(n)) {
      TokenizeTo(doc.text(n), options.tokenizer, collect);
    } else {
      if (options.index_tags) {
        TokenizeTo(doc.tag(n), options.tokenizer, collect);
      }
      if (options.index_attributes || options.index_attribute_names) {
        for (const auto& [name, value] : doc.attributes(n)) {
          if (options.index_attribute_names) {
            TokenizeTo(name, options.tokenizer, collect);
          }
          if (options.index_attributes) {
            TokenizeTo(value, options.tokenizer, collect);
          }
        }
      }
      stack.push_back(doc.children(n).begin());
    }

    // A node that mentions a keyword twice still appears once in its list.
    std::sort(node_terms.begin(), node_terms.end());
    node_terms.erase(std::unique(node_terms.begin(), node_terms.end()),
                     node_terms.end());
    for (const std::string& term : node_terms) {
      index.AddPosting(term, id);
    }

    // Next in document order: the first unvisited child of the deepest
    // open element.
    while (!stack.empty() && stack.back() == Document::ChildRange::end()) {
      stack.pop_back();
    }
    if (stack.empty()) break;
    n = *stack.back()++;
  }
  return index;
}

const PackedDeweyList* InvertedIndex::Find(std::string_view keyword) const {
  auto it = term_ids_.find(keyword);
  if (it == term_ids_.end()) return nullptr;
  return &lists_[it->second];
}

std::vector<DeweyId> InvertedIndex::Materialize(
    std::string_view keyword) const {
  const PackedDeweyList* list = Find(keyword);
  return list == nullptr ? std::vector<DeweyId>{} : list->Materialize();
}

size_t InvertedIndex::Frequency(std::string_view keyword) const {
  const PackedDeweyList* list = Find(keyword);
  return list == nullptr ? 0 : list->size();
}

void InvertedIndex::AddPosting(std::string_view keyword, const DeweyId& id) {
  level_table_.Observe(id);
  auto it = term_ids_.find(keyword);
  uint32_t term;
  if (it == term_ids_.end()) {
    term = static_cast<uint32_t>(lists_.size());
    term_ids_.emplace(std::string(keyword), term);
    lists_.emplace_back();
  } else {
    term = it->second;
  }
  // Append enforces nondecreasing order and dedupes equal ids.
  if (lists_[term].Append(id)) ++total_postings_;
}

std::vector<std::string> InvertedIndex::Terms() const {
  std::vector<std::string> out;
  out.reserve(term_ids_.size());
  for (const auto& [term, id] : term_ids_) out.push_back(term);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xksearch
