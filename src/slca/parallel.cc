#include "slca/parallel.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

namespace xksearch {

namespace internal {

void Stitcher::Add(const ChunkOutput& chunk) {
  for (const DeweyId& c : chunk.confirmed) {
    if (has_pending_) {
      DeweyCmpCharge charge(stats_);
      // Lemma 1 across the seam: the cross-chunk running candidate is the
      // true running maximum at this point of the S1 order; a locally
      // confirmed candidate that does not exceed it was confirmed against
      // an underestimate and is really an out-of-order ancestor — drop it.
      if (c.Compare(pending_, charge.slot()) <= 0) continue;
      // Lemma 2: c is the pending candidate's first larger successor.
      if (!pending_.IsAncestorOf(c)) Deliver(pending_);
      has_pending_ = false;
    }
    // c survived its in-chunk witness and (if present) the cross-chunk
    // candidate, so it is a definite SLCA.
    Deliver(c);
  }
  if (!chunk.has_pending) return;
  if (has_pending_) {
    DeweyCmpCharge charge(stats_);
    if (chunk.pending.Compare(pending_, charge.slot()) <= 0) return;
    if (!pending_.IsAncestorOf(chunk.pending)) Deliver(pending_);
  }
  pending_ = chunk.pending;
  has_pending_ = true;
}

void Stitcher::Finish() {
  // The final candidate standing is always an SLCA (same as the
  // sequential emitter's Finish).
  if (has_pending_) Deliver(pending_);
  has_pending_ = false;
  FlushBlock();
}

void Stitcher::Deliver(const DeweyId& id) {
  if (stats_ != nullptr) ++stats_->results;
  buffered_.push_back(id);
  if (buffered_.size() >= block_size_) FlushBlock();
}

void Stitcher::FlushBlock() {
  for (const DeweyId& id : buffered_) emit_(id);
  buffered_.clear();
}

}  // namespace internal

namespace {

using internal::ChunkOutput;

/// The chunk-local half of the eager emitter: applies Lemma 1/2 against
/// the chunk's own running candidate, but publishes survivors into the
/// ChunkOutput instead of emitting — confirmation is only tentative until
/// the stitch pass has seen the preceding chunks' candidates, and
/// stats->results is charged at true emission time only.
class ChunkCollector {
 public:
  ChunkCollector(QueryStats* stats, ChunkOutput* out)
      : stats_(stats), out_(out) {}

  void Offer(const DeweyId& x) {
    if (!have_candidate_) {
      candidate_ = x;
      have_candidate_ = true;
      return;
    }
    DeweyCmpCharge charge(stats_);
    const int order = x.Compare(candidate_, charge.slot());
    if (order > 0) {
      if (!candidate_.IsAncestorOf(x)) out_->confirmed.push_back(candidate_);
      candidate_ = x;
    }
    // order <= 0: Lemma 1 — drop, the chunk candidate only grows.
  }

  void Finish() {
    if (!have_candidate_) return;
    out_->pending = candidate_;
    out_->has_pending = true;
  }

 private:
  QueryStats* stats_;
  ChunkOutput* out_;
  DeweyId candidate_;
  bool have_candidate_ = false;
};

/// Runs the eager chain over one S1 chunk. Every keyword list is rebound
/// through CloneWithStats so probe-hint state and stats charging are
/// chunk-private; the underlying arenas / disk cursors are shared and
/// read concurrently.
Status RunChunkImpl(SlcaAlgorithm algorithm,
                    const std::vector<KeywordList*>& lists,
                    const ListChunk& chunk, ChunkOutput* out) {
  QueryStats* stats = &out->stats;
  XKS_ASSIGN_OR_RETURN(std::unique_ptr<KeywordList> s1,
                       lists[0]->CloneWithStats(stats));
  XKS_ASSIGN_OR_RETURN(std::unique_ptr<KeywordListIterator> iter,
                       s1->NewChunkIterator(chunk));
  std::vector<std::unique_ptr<KeywordList>> others;
  others.reserve(lists.size() - 1);
  for (size_t i = 1; i < lists.size(); ++i) {
    XKS_ASSIGN_OR_RETURN(std::unique_ptr<KeywordList> clone,
                         lists[i]->CloneWithStats(stats));
    others.push_back(std::move(clone));
  }

  ChunkCollector collector(stats, out);
  BlockedListCursor s1_cursor(iter.get(), stats);
  DeweyView v;
  DeweyId x;
  if (algorithm == SlcaAlgorithm::kScanEager) {
    std::vector<ScanMatcher> matchers;
    matchers.reserve(others.size());
    for (const auto& list : others) {
      matchers.emplace_back(stats);
      XKS_RETURN_NOT_OK(matchers.back().Init(list.get(), chunk.first));
    }
    while (s1_cursor.NextView(&v)) {
      x.AssignFrom(v);
      for (ScanMatcher& matcher : matchers) {
        XKS_RETURN_NOT_OK(matcher.Step(&x));
      }
      collector.Offer(x);
    }
  } else {
    MatchScratch scratch;
    while (s1_cursor.NextView(&v)) {
      x.AssignFrom(v);
      for (const auto& list : others) {
        XKS_RETURN_NOT_OK(MatchStep(list.get(), &x, &scratch, stats));
      }
      collector.Offer(x);
    }
  }
  XKS_RETURN_NOT_OK(iter->status());
  collector.Finish();
  return Status::OK();
}

}  // namespace

Status ComputeSlcaParallel(SlcaAlgorithm algorithm,
                           const std::vector<KeywordList*>& lists,
                           const SlcaOptions& options,
                           const ParallelExecOptions& exec, QueryStats* stats,
                           const ResultCallback& emit) {
  // The Stack algorithm is a full k-way merge with global stack state —
  // it has no chunk decomposition; argument errors are delegated so the
  // messages come from one place.
  if (exec.pool == nullptr || exec.max_chunks <= 1 ||
      algorithm == SlcaAlgorithm::kStack || lists.empty() ||
      lists.size() > 64) {
    return ComputeSlca(algorithm, lists, options, stats, emit);
  }
  for (KeywordList* list : lists) {
    if (list->size() == 0) return Status::OK();
  }
  XKS_ASSIGN_OR_RETURN(
      std::vector<ListChunk> chunks,
      lists[0]->PlanChunks(exec.max_chunks, exec.min_chunk_elements));
  if (chunks.size() <= 1) {
    return ComputeSlca(algorithm, lists, options, stats, emit);
  }

  const size_t n = chunks.size();
  std::vector<ChunkOutput> outputs(n);
  std::vector<uint8_t> is_async(n, 0);  // written only before the wait loop
  std::vector<uint8_t> done(n, 0);      // guarded by mu
  std::mutex mu;
  std::condition_variable cv;

  // Chunk 0 always runs on this thread (first results reach the emitter
  // as early as possible); chunks 1..n-1 go to the pool, each holding one
  // budget token while in flight. A chunk that gets no token or is
  // rejected by the pool's admission control simply stays synchronous —
  // the wait loop below runs it inline when its turn comes.
  for (size_t j = 1; j < n; ++j) {
    if (exec.budget != nullptr && !exec.budget->TryAcquire()) continue;
    auto task = [&, j]() {
      outputs[j].status = RunChunkImpl(algorithm, lists, chunks[j], &outputs[j]);
      if (exec.budget != nullptr) exec.budget->Release();
      // Notify while holding the lock: the coordinator owns the latch
      // storage and may destroy it the moment it observes done.
      std::lock_guard<std::mutex> lock(mu);
      done[j] = 1;
      cv.notify_all();
    };
    if (exec.pool->Submit(std::move(task)).ok()) {
      is_async[j] = 1;
    } else if (exec.budget != nullptr) {
      exec.budget->Release();
    }
  }

  // Consume chunks strictly in S1 order, stitching and emitting each as
  // soon as it (and all its predecessors) completed. Even after an error
  // every async chunk is awaited — their tasks reference this frame.
  internal::Stitcher stitcher(options.block_size, stats, emit);
  Status failure;
  for (size_t j = 0; j < n; ++j) {
    if (is_async[j]) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done[j] != 0; });
    } else {
      outputs[j].status =
          RunChunkImpl(algorithm, lists, chunks[j], &outputs[j]);
    }
    *stats += outputs[j].stats;
    if (!outputs[j].status.ok()) {
      if (failure.ok()) failure = outputs[j].status;
    } else if (failure.ok()) {
      stitcher.Add(outputs[j]);
    }
  }
  XKS_RETURN_NOT_OK(failure);
  stitcher.Finish();
  return Status::OK();
}

}  // namespace xksearch
