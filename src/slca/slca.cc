#include "slca/slca.h"

#include <algorithm>
#include <utility>

namespace xksearch {

namespace {

/// Applies Lemma 1 and Lemma 2 to the stream of per-v results
/// slca({v}, S2..Sk) and delivers confirmed SLCAs, buffered in blocks of
/// `block_size` offers (the paper's buffer size B).
class EagerEmitter {
 public:
  EagerEmitter(size_t block_size, QueryStats* stats,
               const ResultCallback& emit)
      : block_size_(block_size == 0 ? 1 : block_size),
        stats_(stats),
        emit_(emit) {}

  /// Feeds the next chain result, in S1 order.
  void Offer(const DeweyId& x) {
    if (!have_candidate_) {
      candidate_ = x;
      have_candidate_ = true;
    } else {
      DeweyCmpCharge charge(stats_);
      const int order = x.Compare(candidate_, charge.slot());
      if (order > 0) {
        // Lemma 2: the candidate is confirmed unless x is its descendant.
        if (!candidate_.IsAncestorOf(x)) Confirm(candidate_);
        candidate_ = x;
      }
      // order <= 0: Lemma 1 — an out-of-order (or duplicate) result is an
      // ancestor node and is discarded.
    }
    if (++offers_in_block_ >= block_size_) FlushBlock();
  }

  /// The last candidate standing is always an SLCA.
  void Finish() {
    if (have_candidate_) Confirm(candidate_);
    FlushBlock();
  }

 private:
  void Confirm(const DeweyId& id) {
    if (stats_ != nullptr) ++stats_->results;
    buffered_.push_back(id);
  }

  void FlushBlock() {
    for (const DeweyId& id : buffered_) emit_(id);
    buffered_.clear();
    offers_in_block_ = 0;
  }

  size_t block_size_;
  QueryStats* stats_;
  const ResultCallback& emit_;
  DeweyId candidate_;
  bool have_candidate_ = false;
  std::vector<DeweyId> buffered_;
  size_t offers_in_block_ = 0;
};

/// Paper Property 1 on prefix lengths: lca(x, m) is x's prefix of length
/// cpl(x, m), so deeper(lca(x, lm), lca(x, rm)) is x truncated to the
/// longer of the two lengths (a missing match contributes length 0).
/// `lm`/`rm` are null when the match does not exist; each present one is
/// charged as one LCA computation.
void TruncateToDeeperLca(DeweyId* x, const DeweyView* lm, const DeweyView* rm,
                         QueryStats* stats) {
  size_t keep = 0;
  if (lm != nullptr) {
    keep = x->view().CommonPrefixLength(*lm);
    if (stats != nullptr) ++stats->lca_ops;
  }
  if (rm != nullptr) {
    keep = std::max(keep, x->view().CommonPrefixLength(*rm));
    if (stats != nullptr) ++stats->lca_ops;
  }
  x->Truncate(keep);
}

bool AnyListEmpty(const std::vector<KeywordList*>& lists) {
  for (KeywordList* list : lists) {
    if (list->size() == 0) return true;
  }
  return false;
}

Status ValidateLists(const std::vector<KeywordList*>& lists) {
  if (lists.empty()) {
    return Status::InvalidArgument("SLCA query needs at least one keyword");
  }
  if (lists.size() > 64) {
    return Status::InvalidArgument("at most 64 keyword lists supported");
  }
  return Status::OK();
}

}  // namespace

Status MatchStep(KeywordList* list, DeweyId* x, MatchScratch* scratch,
                 QueryStats* stats) {
  if (stats != nullptr) stats->match_ops += 2;
  XKS_ASSIGN_OR_RETURN(const bool lm_ok, list->LeftMatch(*x, &scratch->lm));
  XKS_ASSIGN_OR_RETURN(const bool rm_ok, list->RightMatch(*x, &scratch->rm));
  const DeweyView lm = scratch->lm.view();
  const DeweyView rm = scratch->rm.view();
  TruncateToDeeperLca(x, lm_ok ? &lm : nullptr, rm_ok ? &rm : nullptr, stats);
  return Status::OK();
}

Status ScanMatcher::Init(KeywordList* list) {
  XKS_ASSIGN_OR_RETURN(iter_, list->NewIterator());
  return Start();
}

Status ScanMatcher::Init(KeywordList* list, const DeweyId& seed) {
  XKS_ASSIGN_OR_RETURN(iter_,
                       list->NewIteratorAt(seed, &prev_store_, &prev_valid_));
  prev_ = prev_store_.view();
  return Start();
}

Status ScanMatcher::Start() {
  cursor_.emplace(iter_.get(), stats_);
  cur_valid_ = cursor_->NextView(&cur_);
  return iter_->status();
}

Status ScanMatcher::Step(DeweyId* x) {
  if (stats_ != nullptr) stats_->match_ops += 2;  // one lm + one rm
  DeweyCmpCharge charge(stats_);
  const DeweyView target = x->view();
  while (cur_valid_ && cur_.Compare(target, charge.slot()) < 0) {
    // The passed element stays a view into the cursor's block; it is
    // copied out only when the next read is about to overwrite that block.
    if (cursor_->WillRefill()) {
      prev_store_.AssignFrom(cur_);
      prev_ = prev_store_.view();
    } else {
      prev_ = cur_;
    }
    prev_valid_ = true;
    cur_valid_ = cursor_->NextView(&cur_);
    if (!cur_valid_) XKS_RETURN_NOT_OK(iter_->status());
  }
  // A passed element sits under x, so rm(x) is under x too and
  // lca(x, rm(x)) = x — the deepest possible outcome: x stays.
  if (prev_valid_ && target.IsAncestorOrSelf(prev_)) return Status::OK();
  TruncateToDeeperLca(x, prev_valid_ ? &prev_ : nullptr,
                      cur_valid_ ? &cur_ : nullptr, stats_);
  return Status::OK();
}

Status IndexedLookupEagerSlca(const std::vector<KeywordList*>& lists,
                              const SlcaOptions& options, QueryStats* stats,
                              const ResultCallback& emit) {
  XKS_RETURN_NOT_OK(ValidateLists(lists));
  if (AnyListEmpty(lists)) return Status::OK();

  XKS_ASSIGN_OR_RETURN(std::unique_ptr<KeywordListIterator> s1,
                       lists[0]->NewIterator());
  BlockedListCursor s1_cursor(s1.get(), stats);
  EagerEmitter emitter(options.block_size, stats, emit);
  MatchScratch scratch;
  DeweyView v;
  DeweyId x;
  while (s1_cursor.NextView(&v)) {
    x.AssignFrom(v);
    for (size_t i = 1; i < lists.size(); ++i) {
      XKS_RETURN_NOT_OK(MatchStep(lists[i], &x, &scratch, stats));
    }
    emitter.Offer(x);
  }
  XKS_RETURN_NOT_OK(s1->status());
  emitter.Finish();
  return Status::OK();
}

Status ScanEagerSlca(const std::vector<KeywordList*>& lists,
                     const SlcaOptions& options, QueryStats* stats,
                     const ResultCallback& emit) {
  XKS_RETURN_NOT_OK(ValidateLists(lists));
  if (AnyListEmpty(lists)) return Status::OK();

  XKS_ASSIGN_OR_RETURN(std::unique_ptr<KeywordListIterator> s1,
                       lists[0]->NewIterator());
  std::vector<ScanMatcher> matchers;
  matchers.reserve(lists.size() - 1);
  for (size_t i = 1; i < lists.size(); ++i) {
    matchers.emplace_back(stats);
    XKS_RETURN_NOT_OK(matchers.back().Init(lists[i]));
  }

  BlockedListCursor s1_cursor(s1.get(), stats);
  EagerEmitter emitter(options.block_size, stats, emit);
  DeweyView v;
  DeweyId x;
  while (s1_cursor.NextView(&v)) {
    x.AssignFrom(v);
    for (ScanMatcher& matcher : matchers) {
      XKS_RETURN_NOT_OK(matcher.Step(&x));
    }
    emitter.Offer(x);
  }
  XKS_RETURN_NOT_OK(s1->status());
  emitter.Finish();
  return Status::OK();
}

Status StackSlca(const std::vector<KeywordList*>& lists,
                 const SlcaOptions& options, QueryStats* stats,
                 const ResultCallback& emit) {
  (void)options;  // The Stack algorithm has no buffer-size knob.
  XKS_RETURN_NOT_OK(ValidateLists(lists));
  if (AnyListEmpty(lists)) return Status::OK();

  const size_t k = lists.size();
  const uint64_t full_mask = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;

  // K-way merge heads.
  std::vector<std::unique_ptr<KeywordListIterator>> iters(k);
  std::vector<DeweyId> heads(k);
  std::vector<bool> head_valid(k);
  for (size_t i = 0; i < k; ++i) {
    XKS_ASSIGN_OR_RETURN(iters[i], lists[i]->NewIterator());
    head_valid[i] = iters[i]->Next(&heads[i]);
    XKS_RETURN_NOT_OK(iters[i]->status());
  }

  // Stack entry j describes the subtree rooted at the node whose Dewey
  // number is path[0..j]: which keywords it contains (directly or via
  // popped descendants) and whether an SLCA was already found below it.
  struct Entry {
    uint64_t flags = 0;
    bool slca_below = false;
  };
  std::vector<Entry> stack;
  std::vector<uint32_t> path;

  auto pop_one = [&]() {
    const Entry top = stack.back();
    const DeweyId node(
        std::vector<uint32_t>(path.begin(), path.begin() + stack.size()));
    stack.pop_back();
    path.pop_back();
    if (top.slca_below) {
      if (!stack.empty()) stack.back().slca_below = true;
    } else if (top.flags == full_mask) {
      if (stats != nullptr) ++stats->results;
      emit(node);
      if (!stack.empty()) stack.back().slca_below = true;
    } else if (!stack.empty()) {
      stack.back().flags |= top.flags;
    }
  };

  DeweyCmpCharge charge(stats);
  for (;;) {
    // Select the smallest head (k is tiny, linear selection beats a heap).
    size_t min_idx = k;
    for (size_t i = 0; i < k; ++i) {
      if (!head_valid[i]) continue;
      if (min_idx == k ||
          heads[i].Compare(heads[min_idx], charge.slot()) < 0) {
        min_idx = i;
      }
    }
    if (min_idx == k) break;
    const DeweyId& id = heads[min_idx];

    // Pop everything that is not an ancestor-or-self of the new node.
    size_t shared = 0;
    const size_t limit = std::min(path.size(), id.depth());
    while (shared < limit && path[shared] == id.component(shared)) ++shared;
    if (stats != nullptr) ++stats->lca_ops;
    while (stack.size() > shared) pop_one();

    // Push the new node's remaining components and mark its keyword.
    for (size_t j = shared; j < id.depth(); ++j) {
      stack.emplace_back();
      path.push_back(id.component(j));
    }
    stack.back().flags |= uint64_t{1} << min_idx;

    head_valid[min_idx] = iters[min_idx]->Next(&heads[min_idx]);
    XKS_RETURN_NOT_OK(iters[min_idx]->status());
  }
  while (!stack.empty()) pop_one();
  return Status::OK();
}

std::string ToString(SlcaAlgorithm algorithm) {
  switch (algorithm) {
    case SlcaAlgorithm::kIndexedLookupEager:
      return "IndexedLookupEager";
    case SlcaAlgorithm::kScanEager:
      return "ScanEager";
    case SlcaAlgorithm::kStack:
      return "Stack";
  }
  return "Unknown";
}

Status ComputeSlca(SlcaAlgorithm algorithm,
                   const std::vector<KeywordList*>& lists,
                   const SlcaOptions& options, QueryStats* stats,
                   const ResultCallback& emit) {
  switch (algorithm) {
    case SlcaAlgorithm::kIndexedLookupEager:
      return IndexedLookupEagerSlca(lists, options, stats, emit);
    case SlcaAlgorithm::kScanEager:
      return ScanEagerSlca(lists, options, stats, emit);
    case SlcaAlgorithm::kStack:
      return StackSlca(lists, options, stats, emit);
  }
  return Status::InvalidArgument("unknown SLCA algorithm");
}

Result<std::vector<DeweyId>> ComputeSlcaList(
    SlcaAlgorithm algorithm, const std::vector<KeywordList*>& lists,
    const SlcaOptions& options, QueryStats* stats) {
  std::vector<DeweyId> out;
  XKS_RETURN_NOT_OK(ComputeSlca(algorithm, lists, options, stats,
                                [&](const DeweyId& id) { out.push_back(id); }));
  return out;
}

}  // namespace xksearch
