#include "slca/keyword_list.h"

#include <algorithm>

namespace xksearch {

namespace {

class VectorIterator : public KeywordListIterator {
 public:
  VectorIterator(const std::vector<DeweyId>* ids, QueryStats* stats,
                 size_t begin = 0, size_t end = SIZE_MAX)
      : ids_(ids),
        stats_(stats),
        pos_(begin),
        end_(std::min(end, ids->size())) {}

  bool Next(DeweyId* out) override {
    if (pos_ >= end_) return false;
    *out = (*ids_)[pos_++];
    if (stats_ != nullptr) ++stats_->postings_read;
    return true;
  }

  /// Vector lists have no encoding to batch-decode, but exposing ids
  /// through the same arena keeps the blocked consumers on one code
  /// path (and the charging contract: the cursor counts, not us).
  bool DecodeBlockInto(DecodedBlock* out) override {
    out->Clear();
    const size_t n = std::min<size_t>(kDecodeRun, end_ - std::min(pos_, end_));
    for (size_t i = 0; i < n; ++i) out->Append((*ids_)[pos_ + i].view());
    pos_ += n;
    return true;
  }

  const Status& status() const override { return status_; }

 private:
  static constexpr size_t kDecodeRun = 32;

  const std::vector<DeweyId>* ids_;
  QueryStats* stats_;
  size_t pos_ = 0;
  size_t end_;
  Status status_;
};

class DiskIterator : public KeywordListIterator {
 public:
  explicit DiskIterator(DiskIndex::PostingCursor cursor)
      : cursor_(std::move(cursor)) {}

  bool Next(DeweyId* out) override { return cursor_.Next(out); }
  bool DecodeBlockInto(DecodedBlock* out) override {
    return cursor_.DecodeBlockInto(out);
  }
  const Status& status() const override { return cursor_.status(); }

 private:
  DiskIndex::PostingCursor cursor_;
};

class EmptyIterator : public KeywordListIterator {
 public:
  bool Next(DeweyId*) override { return false; }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> PartitionUnits(
    uint64_t units, size_t max_chunks, uint64_t min_units) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  if (units == 0 || max_chunks <= 1) return out;
  if (min_units == 0) min_units = 1;
  const uint64_t chunks = std::min<uint64_t>(
      max_chunks, std::max<uint64_t>(1, units / min_units));
  if (chunks <= 1) return out;
  // Spread the remainder over the leading chunks so sizes differ by at
  // most one unit.
  const uint64_t base = units / chunks;
  const uint64_t extra = units % chunks;
  uint64_t begin = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const uint64_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, len);
    begin += len;
  }
  return out;
}

size_t VectorKeywordList::LowerBound(const DeweyId& v) const {
  size_t lo = 0, hi = ids_->size();
  uint64_t* const cmp = QueryStats::ComparisonSlot(stats_);
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if ((*ids_)[mid].Compare(v, cmp) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<bool> VectorKeywordList::LeftMatch(const DeweyId& v, DeweyId* out) {
  const size_t pos = LowerBound(v);
  // The equality probe is a Dewey comparison like any other: charge it
  // through Compare so cmp accounting is uniform across the vector and
  // packed implementations (it used to go through operator==, silently
  // uncounted).
  uint64_t* const cmp = QueryStats::ComparisonSlot(stats_);
  if (pos < ids_->size() && (*ids_)[pos].Compare(v, cmp) == 0) {
    *out = (*ids_)[pos];
    return true;
  }
  if (pos == 0) return false;
  *out = (*ids_)[pos - 1];
  return true;
}

Result<bool> VectorKeywordList::RightMatch(const DeweyId& v, DeweyId* out) {
  const size_t pos = LowerBound(v);
  if (pos >= ids_->size()) return false;
  *out = (*ids_)[pos];
  return true;
}

Result<std::unique_ptr<KeywordListIterator>> VectorKeywordList::NewIterator() {
  return std::unique_ptr<KeywordListIterator>(
      new VectorIterator(ids_, stats_));
}

Result<std::vector<ListChunk>> VectorKeywordList::PlanChunks(
    size_t max_chunks, uint64_t min_elements) {
  std::vector<ListChunk> chunks;
  for (const auto& [begin, count] :
       PartitionUnits(ids_->size(), max_chunks, min_elements)) {
    ListChunk chunk;
    chunk.first = (*ids_)[static_cast<size_t>(begin)];
    chunk.begin = begin;
    chunk.count = count;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<KeywordListIterator>> VectorKeywordList::NewChunkIterator(
    const ListChunk& chunk) {
  return std::unique_ptr<KeywordListIterator>(
      new VectorIterator(ids_, stats_, static_cast<size_t>(chunk.begin),
                         static_cast<size_t>(chunk.begin + chunk.count)));
}

Result<std::unique_ptr<KeywordListIterator>> VectorKeywordList::NewIteratorAt(
    const DeweyId& start, DeweyId* prev, bool* prev_valid) {
  const size_t pos = LowerBound(start);
  *prev_valid = pos > 0;
  if (pos > 0) *prev = (*ids_)[pos - 1];
  return std::unique_ptr<KeywordListIterator>(
      new VectorIterator(ids_, stats_, pos));
}

Result<std::unique_ptr<KeywordList>> VectorKeywordList::CloneWithStats(
    QueryStats* stats) {
  return std::unique_ptr<KeywordList>(new VectorKeywordList(ids_, stats));
}

Result<bool> DiskKeywordList::LeftMatch(const DeweyId& v, DeweyId* out) {
  return index_->LeftMatch(term_, v, &probe_, out, stats_);
}

Result<bool> DiskKeywordList::RightMatch(const DeweyId& v, DeweyId* out) {
  return index_->RightMatch(term_, v, &probe_, out, stats_);
}

Result<std::unique_ptr<KeywordListIterator>> DiskKeywordList::NewIterator() {
  XKS_ASSIGN_OR_RETURN(DiskIndex::PostingCursor cursor,
                       index_->OpenPostings(term_, stats_));
  return std::unique_ptr<KeywordListIterator>(
      new DiskIterator(std::move(cursor)));
}

Result<std::vector<ListChunk>> DiskKeywordList::PlanChunks(
    size_t max_chunks, uint64_t min_elements) {
  std::vector<ListChunk> chunks;
  if (max_chunks <= 1 || frequency_ == 0) return chunks;
  XKS_ASSIGN_OR_RETURN(std::vector<DiskIndex::ScanBlockRef> blocks,
                       index_->ScanBlockRefs(term_, stats_));
  if (blocks.size() <= 1) return chunks;
  // Translate the element threshold into blocks via the average fill;
  // block payload budgets make fills near-uniform, so chunk work stays
  // balanced even though exact per-block counts are unknown.
  const uint64_t avg_fill =
      std::max<uint64_t>(1, frequency_ / blocks.size());
  const uint64_t min_blocks = (min_elements + avg_fill - 1) / avg_fill;
  for (const auto& [begin, count] :
       PartitionUnits(blocks.size(), max_chunks, min_blocks)) {
    ListChunk chunk;
    chunk.first = std::move(blocks[static_cast<size_t>(begin)].first);
    chunk.begin = begin;
    chunk.count = count;
    chunk.opaque = std::move(blocks[static_cast<size_t>(begin)].key);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<KeywordListIterator>> DiskKeywordList::NewChunkIterator(
    const ListChunk& chunk) {
  XKS_ASSIGN_OR_RETURN(
      DiskIndex::PostingCursor cursor,
      index_->OpenPostingsAtBlock(term_, chunk.opaque, chunk.count, stats_));
  return std::unique_ptr<KeywordListIterator>(
      new DiskIterator(std::move(cursor)));
}

Result<std::unique_ptr<KeywordListIterator>> DiskKeywordList::NewIteratorAt(
    const DeweyId& start, DeweyId* prev, bool* prev_valid) {
  XKS_ASSIGN_OR_RETURN(
      DiskIndex::PostingCursor cursor,
      index_->OpenPostingsFrom(term_, start, prev, prev_valid, stats_));
  return std::unique_ptr<KeywordListIterator>(
      new DiskIterator(std::move(cursor)));
}

Result<std::unique_ptr<KeywordList>> DiskKeywordList::CloneWithStats(
    QueryStats* stats) {
  return std::unique_ptr<KeywordList>(
      new DiskKeywordList(index_, term_, frequency_, stats));
}

Result<std::unique_ptr<KeywordListIterator>> EmptyKeywordList::NewIterator() {
  return std::unique_ptr<KeywordListIterator>(new EmptyIterator());
}

}  // namespace xksearch
