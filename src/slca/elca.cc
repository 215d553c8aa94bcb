#include "slca/elca.h"

#include <algorithm>
#include <memory>

namespace xksearch {

Status ElcaStack(const std::vector<KeywordList*>& lists,
                 const SlcaOptions& options, QueryStats* stats,
                 const ResultCallback& emit) {
  (void)options;
  if (lists.empty()) {
    return Status::InvalidArgument("ELCA query needs at least one keyword");
  }
  if (lists.size() > 64) {
    return Status::InvalidArgument("at most 64 keyword lists supported");
  }
  const size_t k = lists.size();
  const uint64_t full_mask = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  for (KeywordList* list : lists) {
    if (list->size() == 0) return Status::OK();
  }

  // K-way merge heads, as in StackSlca.
  std::vector<std::unique_ptr<KeywordListIterator>> iters(k);
  std::vector<DeweyId> heads(k);
  std::vector<bool> head_valid(k);
  for (size_t i = 0; i < k; ++i) {
    XKS_ASSIGN_OR_RETURN(iters[i], lists[i]->NewIterator());
    head_valid[i] = iters[i]->Next(&heads[i]);
    XKS_RETURN_NOT_OK(iters[i]->status());
  }

  // Stack entry j describes the node at Dewey prefix path[0..j]: which
  // keywords its subtree covers, and how many occurrences of each remain
  // "free" — not absorbed by a covering (full-mask) descendant.
  struct Entry {
    uint64_t mask = 0;
    std::vector<uint32_t> free_counts;
    explicit Entry(size_t keywords) : free_counts(keywords, 0) {}
  };
  std::vector<Entry> stack;
  std::vector<uint32_t> path;

  auto pop_one = [&]() {
    Entry top = std::move(stack.back());
    const DeweyId node(
        std::vector<uint32_t>(path.begin(), path.begin() + stack.size()));
    stack.pop_back();
    path.pop_back();
    if (top.mask == full_mask) {
      // A covering node: an ELCA iff every keyword kept a free witness.
      const bool elca =
          std::all_of(top.free_counts.begin(), top.free_counts.end(),
                      [](uint32_t c) { return c > 0; });
      if (elca) {
        if (stats != nullptr) ++stats->results;
        emit(node);
      }
      // Either way the parent sees no free occurrences from this child:
      // they are absorbed by a covering descendant (XRANK's exclusion).
      if (!stack.empty()) stack.back().mask |= top.mask;
    } else if (!stack.empty()) {
      stack.back().mask |= top.mask;
      for (size_t i = 0; i < top.free_counts.size(); ++i) {
        stack.back().free_counts[i] += top.free_counts[i];
      }
    }
  };

  uint64_t* const cmp = QueryStats::ComparisonSlot(stats);
  for (;;) {
    size_t min_idx = k;
    for (size_t i = 0; i < k; ++i) {
      if (!head_valid[i]) continue;
      if (min_idx == k ||
          heads[i].Compare(heads[min_idx], cmp) < 0) {
        min_idx = i;
      }
    }
    if (min_idx == k) break;
    const DeweyId& id = heads[min_idx];

    size_t shared = 0;
    const size_t limit = std::min(path.size(), id.depth());
    while (shared < limit && path[shared] == id.component(shared)) ++shared;
    if (stats != nullptr) ++stats->lca_ops;
    while (stack.size() > shared) pop_one();

    for (size_t j = shared; j < id.depth(); ++j) {
      stack.emplace_back(k);
      path.push_back(id.component(j));
    }
    stack.back().mask |= uint64_t{1} << min_idx;
    ++stack.back().free_counts[min_idx];

    head_valid[min_idx] = iters[min_idx]->Next(&heads[min_idx]);
    XKS_RETURN_NOT_OK(iters[min_idx]->status());
  }
  while (!stack.empty()) pop_one();
  return Status::OK();
}

Result<std::vector<DeweyId>> ComputeElcaList(
    const std::vector<KeywordList*>& lists, const SlcaOptions& options,
    QueryStats* stats) {
  std::vector<DeweyId> out;
  XKS_RETURN_NOT_OK(ElcaStack(lists, options, stats,
                              [&](const DeweyId& id) { out.push_back(id); }));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xksearch
