#ifndef XKSEARCH_SLCA_KEYWORD_LIST_H_
#define XKSEARCH_SLCA_KEYWORD_LIST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "dewey/decode_kernels.h"
#include "dewey/dewey_id.h"
#include "storage/disk_index.h"

namespace xksearch {

/// \brief Forward scan over a keyword list in Dewey order.
class KeywordListIterator {
 public:
  virtual ~KeywordListIterator() = default;

  /// Produces the next id; false at end of list. Check status() afterwards
  /// to distinguish clean exhaustion from an I/O or corruption error.
  virtual bool Next(DeweyId* out) = 0;
  virtual const Status& status() const = 0;

  /// Batch hook: replaces `out` with the iterator's next run of decoded
  /// entries (typically one storage block) and returns true. An empty
  /// `out` then means end of list (check status() for errors, as with
  /// Next). Returns false when the backend has no blocked path — the
  /// caller falls back to Next for good. Implementations do NOT charge
  /// postings_read here; the consuming cursor charges per entry it
  /// actually delivers, so stats are identical across both paths.
  virtual bool DecodeBlockInto(DecodedBlock* out) {
    (void)out;
    return false;
  }
};

/// \brief Block-at-a-time consumption adapter over a KeywordListIterator.
///
/// Pulls whole decoded arenas through DecodeBlockInto when the backend
/// supports it (packed, vector and disk lists all do) and serves views
/// out of the arena with zero per-entry decode or allocation; falls back
/// permanently to entry-at-a-time Next otherwise. Charges postings_read
/// once per delivered entry — exactly what the wrapped iterator would
/// have charged — so the two paths are indistinguishable in QueryStats.
class BlockedListCursor {
 public:
  /// `iter` must outlive the cursor. `stats` may be null.
  BlockedListCursor(KeywordListIterator* iter, QueryStats* stats)
      : iter_(iter), stats_(stats) {}

  /// The next entry as a view; false at end of list or error (check
  /// iterator status()). A view stays valid across later NextView calls
  /// as long as none of them refills the cursor (see WillRefill).
  bool NextView(DeweyView* out) {
    if (blocked_) {
      if (pos_ < block_.count()) {
        *out = block_.entry(pos_++);
        if (stats_ != nullptr) ++stats_->postings_read;
        return true;
      }
      if (iter_->DecodeBlockInto(&block_)) {
        pos_ = 0;
        if (block_.empty()) return false;
        *out = block_.entry(pos_++);
        if (stats_ != nullptr) ++stats_->postings_read;
        return true;
      }
      blocked_ = false;
    }
    if (!iter_->Next(&scratch_)) return false;
    *out = scratch_.view();
    return true;
  }

  /// True when the next NextView call overwrites the storage behind the
  /// views handed out so far: the current block is used up, or the
  /// backend has no blocked path and every entry lands in one scratch id.
  bool WillRefill() const { return !blocked_ || pos_ >= block_.count(); }

 private:
  KeywordListIterator* iter_;
  QueryStats* stats_;
  DecodedBlock block_;
  size_t pos_ = 0;
  bool blocked_ = true;  // until the first DecodeBlockInto refusal
  DeweyId scratch_;      // fallback materialization target
};

/// \brief One contiguous range of a keyword list, produced by
/// KeywordList::PlanChunks for chunked (intra-query parallel) execution.
///
/// `first` is the chunk's first element; the remaining fields are
/// backend-private addressing (element index, packed-block index, or an
/// encoded scan-tree key) that only the producing list interprets, via
/// NewChunkIterator. Chunks tile the list: concatenating the chunk
/// iterators in order reproduces NewIterator exactly.
struct ListChunk {
  /// First element of the chunk (the seed for per-chunk scan cursors on
  /// the *other* lists of the query).
  DeweyId first;
  /// Backend-private start position (element or block index).
  uint64_t begin = 0;
  /// Backend-private extent (element or block count).
  uint64_t count = 0;
  /// Backend-private cursor seed (the disk layer's encoded block key).
  std::string opaque;
};

/// Shared chunk-planning arithmetic: splits `units` work units (elements
/// or blocks) into at most `max_chunks` contiguous (begin, count) ranges
/// of at least `min_units` each, sizes differing by at most one. Returns
/// an empty vector when no real split results (fewer than two chunks).
std::vector<std::pair<uint64_t, uint64_t>> PartitionUnits(
    uint64_t units, size_t max_chunks, uint64_t min_units);

/// \brief A keyword list `S`: the nodes directly containing one keyword,
/// sorted by Dewey id (paper Section 2).
///
/// The SLCA algorithms are written against this interface so they run
/// unchanged over in-memory vectors (main-memory complexity analysis) and
/// over the disk index (disk-access analysis). Implementations charge
/// their work to the QueryStats supplied at construction.
class KeywordList {
 public:
  virtual ~KeywordList() = default;

  /// List size |S| (the keyword frequency).
  virtual uint64_t size() const = 0;

  /// lm(v, S): the node of S with the greatest id <= v, or false if none.
  /// One lm call is one "match operation" in the paper's cost model.
  virtual Result<bool> LeftMatch(const DeweyId& v, DeweyId* out) = 0;

  /// rm(v, S): the node of S with the smallest id >= v, or false if none.
  virtual Result<bool> RightMatch(const DeweyId& v, DeweyId* out) = 0;

  /// Opens a fresh scan from the head of the list.
  virtual Result<std::unique_ptr<KeywordListIterator>> NewIterator() = 0;

  /// Partitions the list into at most `max_chunks` contiguous chunks of
  /// at least `min_elements` each (the last may be smaller only because
  /// the list ran out), in list order, tiling the whole list. Returns an
  /// empty vector when the backend does not support chunked execution or
  /// the list is too small to split; callers then run sequentially.
  /// Planning work (if any) is charged to the stats object the list was
  /// constructed with.
  virtual Result<std::vector<ListChunk>> PlanChunks(size_t max_chunks,
                                                    uint64_t min_elements) {
    (void)max_chunks;
    (void)min_elements;
    return std::vector<ListChunk>();
  }

  /// Opens an iterator over exactly one chunk previously produced by
  /// PlanChunks on this list (or on a CloneWithStats sibling).
  virtual Result<std::unique_ptr<KeywordListIterator>> NewChunkIterator(
      const ListChunk& chunk) {
    (void)chunk;
    return Status::NotSupported("keyword list does not support chunks");
  }

  /// Opens an iterator positioned at the first element >= `start`, and
  /// reports the greatest element < `start` through `prev`/`prev_valid`
  /// (the predecessor). The pair (predecessor, cursor front) are adjacent
  /// list elements — exactly the state a sequential forward scan holds
  /// after passing `start` — which is what seeds the Scan Eager variant's
  /// per-chunk cursors. When the first element equals `start` exactly,
  /// blocked backends may leave the predecessor unreported (the exact
  /// hit itself pins any probe target the predecessor could have
  /// pinned, so seeded scans lose nothing). Positioning work is not
  /// charged as postings read (the elements skipped are not consumed by
  /// the algorithm).
  virtual Result<std::unique_ptr<KeywordListIterator>> NewIteratorAt(
      const DeweyId& start, DeweyId* prev, bool* prev_valid) {
    (void)start;
    (void)prev;
    (void)prev_valid;
    return Status::NotSupported("keyword list does not support seeks");
  }

  /// A new adapter over the same underlying list that charges its work to
  /// `stats` instead — one per chunk worker, so per-chunk QueryStats can
  /// be accumulated without sharing mutable adapter state across threads.
  virtual Result<std::unique_ptr<KeywordList>> CloneWithStats(
      QueryStats* stats) {
    (void)stats;
    return Status::NotSupported("keyword list does not support rebinding");
  }
};

/// \brief In-memory list over a sorted vector; lm/rm are binary searches
/// costing O(d log |S|) Dewey component comparisons, as in Table 1.
class VectorKeywordList : public KeywordList {
 public:
  /// `ids` must stay alive and sorted for the lifetime of this object.
  VectorKeywordList(const std::vector<DeweyId>* ids, QueryStats* stats)
      : ids_(ids), stats_(stats) {}

  uint64_t size() const override { return ids_->size(); }
  Result<bool> LeftMatch(const DeweyId& v, DeweyId* out) override;
  Result<bool> RightMatch(const DeweyId& v, DeweyId* out) override;
  Result<std::unique_ptr<KeywordListIterator>> NewIterator() override;
  Result<std::vector<ListChunk>> PlanChunks(size_t max_chunks,
                                            uint64_t min_elements) override;
  Result<std::unique_ptr<KeywordListIterator>> NewChunkIterator(
      const ListChunk& chunk) override;
  Result<std::unique_ptr<KeywordListIterator>> NewIteratorAt(
      const DeweyId& start, DeweyId* prev, bool* prev_valid) override;
  Result<std::unique_ptr<KeywordList>> CloneWithStats(
      QueryStats* stats) override;

 private:
  // First index with ids_[i] >= v.
  size_t LowerBound(const DeweyId& v) const;

  const std::vector<DeweyId>* ids_;
  QueryStats* stats_;
};

/// \brief Disk-backed list over the scan tree: lm/rm probe the block
/// hosting the target through its restart heads, iteration streams the
/// posting blocks.
///
/// Not thread-safe (the probe's cached block is mutable state); build one
/// per query, and one per chunk through CloneWithStats.
class DiskKeywordList : public KeywordList {
 public:
  DiskKeywordList(const DiskIndex* index, uint32_t term, uint64_t frequency,
                  QueryStats* stats)
      : index_(index), term_(term), frequency_(frequency), stats_(stats) {}

  uint64_t size() const override { return frequency_; }
  Result<bool> LeftMatch(const DeweyId& v, DeweyId* out) override;
  Result<bool> RightMatch(const DeweyId& v, DeweyId* out) override;
  Result<std::unique_ptr<KeywordListIterator>> NewIterator() override;
  /// Disk chunks are ranges of scan-layout blocks: planning walks the
  /// term's block keys (each key embeds the block's first Dewey id, so
  /// chunk seeds decode straight from keys) and `min_elements` is
  /// translated into a minimum block count via the term's average block
  /// fill. The key walk's page accesses are charged to this query.
  Result<std::vector<ListChunk>> PlanChunks(size_t max_chunks,
                                            uint64_t min_elements) override;
  Result<std::unique_ptr<KeywordListIterator>> NewChunkIterator(
      const ListChunk& chunk) override;
  Result<std::unique_ptr<KeywordListIterator>> NewIteratorAt(
      const DeweyId& start, DeweyId* prev, bool* prev_valid) override;
  Result<std::unique_ptr<KeywordList>> CloneWithStats(
      QueryStats* stats) override;

 private:
  const DiskIndex* index_;
  uint32_t term_;
  uint64_t frequency_;
  QueryStats* stats_;
  DiskIndex::MatchProbe probe_;
};

/// \brief An always-empty list, used for keywords absent from the index
/// (the SLCA result is then empty, but algorithms still need k lists).
class EmptyKeywordList : public KeywordList {
 public:
  uint64_t size() const override { return 0; }
  Result<bool> LeftMatch(const DeweyId&, DeweyId*) override { return false; }
  Result<bool> RightMatch(const DeweyId&, DeweyId*) override { return false; }
  Result<std::unique_ptr<KeywordListIterator>> NewIterator() override;
  Result<std::unique_ptr<KeywordList>> CloneWithStats(QueryStats*) override {
    return std::unique_ptr<KeywordList>(new EmptyKeywordList());
  }
};

}  // namespace xksearch

#endif  // XKSEARCH_SLCA_KEYWORD_LIST_H_
