#include "slca/packed_list.h"

#include <algorithm>
#include <utility>

namespace xksearch {

namespace {

constexpr uint64_t kNoLimit = ~uint64_t{0};

class PackedIterator : public KeywordListIterator {
 public:
  PackedIterator(PackedDeweyList::Decoder decoder, QueryStats* stats,
                 uint64_t limit = kNoLimit)
      : decoder_(std::move(decoder)), stats_(stats), remaining_(limit) {}

  /// Hands the iterator one already-decoded entry to return first (the
  /// seek in NewIteratorAt necessarily decodes the lower bound before
  /// knowing it reached it).
  void PushBack(DeweyId id) {
    pushed_ = std::move(id);
    has_pushed_ = true;
  }

  bool Next(DeweyId* out) override {
    if (remaining_ == 0) return false;
    if (has_pushed_) {
      has_pushed_ = false;
      *out = std::move(pushed_);
    } else if (!decoder_.Next(out)) {
      return false;
    }
    --remaining_;
    if (stats_ != nullptr) ++stats_->postings_read;
    return true;
  }

  bool DecodeBlockInto(DecodedBlock* out) override {
    if (remaining_ == 0) {
      out->Clear();
      return true;
    }
    if (has_pushed_) {
      out->Clear();
      has_pushed_ = false;
      out->Append(pushed_.view());
      --remaining_;
      return true;
    }
    const size_t n = decoder_.DecodeRunInto(
        out, remaining_ == kNoLimit ? ~size_t{0}
                                    : static_cast<size_t>(remaining_));
    remaining_ -= remaining_ == kNoLimit ? 0 : n;
    return true;
  }

  const Status& status() const override { return status_; }

 private:
  PackedDeweyList::Decoder decoder_;
  QueryStats* stats_;
  uint64_t remaining_;
  DeweyId pushed_;
  bool has_pushed_ = false;
  Status status_;
};

}  // namespace

Result<bool> PackedKeywordList::LeftMatch(const DeweyId& v, DeweyId* out) {
  uint64_t* const cmp = QueryStats::ComparisonSlot(stats_);
  const PackedDeweyList::SeekResult r =
      list_->Seek(v.view(), hinted_, &probe_, cmp);
  if (r.exact) {
    out->AssignFrom(list_->lower_bound(probe_));
    return true;
  }
  if (r.has_predecessor) {
    out->AssignFrom(list_->predecessor(probe_));
    return true;
  }
  return false;
}

Result<bool> PackedKeywordList::RightMatch(const DeweyId& v, DeweyId* out) {
  uint64_t* const cmp = QueryStats::ComparisonSlot(stats_);
  const PackedDeweyList::SeekResult r =
      list_->Seek(v.view(), hinted_, &probe_, cmp);
  if (!r.has_lower_bound) return false;
  out->AssignFrom(list_->lower_bound(probe_));
  return true;
}

Result<std::unique_ptr<KeywordListIterator>> PackedKeywordList::NewIterator() {
  return std::unique_ptr<KeywordListIterator>(
      new PackedIterator(PackedDeweyList::Decoder(list_), stats_));
}

Result<std::vector<ListChunk>> PackedKeywordList::PlanChunks(
    size_t max_chunks, uint64_t min_elements) {
  std::vector<ListChunk> chunks;
  const size_t block_size = list_->block_size();
  const uint64_t min_blocks =
      (min_elements + block_size - 1) / block_size;
  for (const auto& [begin, count] :
       PartitionUnits(list_->block_count(), max_chunks, min_blocks)) {
    ListChunk chunk;
    chunk.first.AssignFrom(list_->block_first(static_cast<size_t>(begin)));
    chunk.begin = begin;
    chunk.count = count;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<KeywordListIterator>> PackedKeywordList::NewChunkIterator(
    const ListChunk& chunk) {
  // chunk.begin/count are block indices; the element extent of blocks
  // [begin, begin + count) is exact from the fixed block geometry.
  const uint64_t first_entry = chunk.begin * list_->block_size();
  const uint64_t end_entry = std::min<uint64_t>(
      list_->size(), (chunk.begin + chunk.count) * list_->block_size());
  return std::unique_ptr<KeywordListIterator>(new PackedIterator(
      PackedDeweyList::Decoder(list_, static_cast<size_t>(chunk.begin)),
      stats_, end_entry - first_entry));
}

Result<std::unique_ptr<KeywordListIterator>> PackedKeywordList::NewIteratorAt(
    const DeweyId& start, DeweyId* prev, bool* prev_valid) {
  *prev_valid = false;
  const size_t blocks = list_->block_count();
  uint64_t* const cmp = QueryStats::ComparisonSlot(stats_);
  // Last block whose first entry is <= start (binary search on the skip
  // table, no decoding).
  size_t lo = 0, hi = blocks;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (list_->block_first(mid).Compare(start.view(), cmp) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    // Every entry is >= start; scan from the head, no predecessor.
    return std::unique_ptr<KeywordListIterator>(
        new PackedIterator(PackedDeweyList::Decoder(list_), stats_));
  }
  const size_t b = lo - 1;
  // Decode block b forward to the first entry >= start, tracking the
  // predecessor. If the whole block is < start, the lower bound is the
  // next block's first entry (or the end of the list) and the block's
  // last entry is the predecessor. An exact hit on a block first leaves
  // the predecessor unreported, which is harmless for the scan-chunk
  // seeding: the exact hit itself pins any regressed ancestor target.
  PackedDeweyList::Decoder decoder(list_, b);
  const size_t entries =
      std::min(list_->size() - b * list_->block_size(), list_->block_size());
  DeweyId id;
  for (size_t i = 0; i < entries; ++i) {
    if (!decoder.Next(&id)) break;
    if (id.Compare(start, cmp) >= 0) {
      auto iter = std::make_unique<PackedIterator>(std::move(decoder), stats_);
      iter->PushBack(std::move(id));
      return std::unique_ptr<KeywordListIterator>(std::move(iter));
    }
    *prev = id;
    *prev_valid = true;
  }
  return std::unique_ptr<KeywordListIterator>(
      new PackedIterator(PackedDeweyList::Decoder(list_, b + 1), stats_));
}

Result<std::unique_ptr<KeywordList>> PackedKeywordList::CloneWithStats(
    QueryStats* stats) {
  return std::unique_ptr<KeywordList>(
      new PackedKeywordList(list_, stats, hinted_));
}

}  // namespace xksearch
