#ifndef XKSEARCH_DEWEY_PACKED_LIST_H_
#define XKSEARCH_DEWEY_PACKED_LIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dewey/decode_kernels.h"
#include "dewey/dewey_id.h"

namespace xksearch {

/// \brief A sorted Dewey list stored as one contiguous prefix-truncated
/// arena — the in-memory counterpart of the paper's Section 4 compressed
/// posting blocks.
///
/// Layout: entries are appended in Dewey order as
///   varint(shared-prefix length) varint(#new components) varint(component)*
/// (the DeltaBlockEncoder wire format), partitioned into fixed-size
/// blocks of `block_size` entries. The first entry of every block is
/// stored in full (shared = 0) so blocks decode independently, and its
/// components are additionally decoded eagerly into a flat side arena —
/// the skip table — so locating a block is a branch-light binary search
/// over DeweyView comparisons with no decoding at all.
///
/// All decoding is block-at-a-time through DecodeBlock
/// (decode_kernels.h): a whole block of entries lands in one reusable
/// DecodedBlock arena per call, instead of entry-at-a-time varint
/// cursors.
///
/// Probing (lm/rm) is: block binary search on the skip table, then a
/// forward scan over the decoded block. The hinted variant (Seek with
/// hinted = true) instead remembers the last probe position in the
/// caller's Probe and gallops forward from it — exponential search over
/// block-first ids, then the same in-block scan — exploiting the
/// nondecreasing-probe property of the eager SLCA chains, which turns
/// Indexed Lookup Eager's probe sequences near-sequential. A regressing
/// probe target is detected and falls back to the cold binary search, so
/// hinted results are identical for arbitrary targets.
///
/// All decode scratch lives in the caller-owned Probe (reused across
/// calls) and a probe keeps its current block decoded, so consecutive
/// seeks into the same block decode nothing and the hot match path
/// performs no per-id heap allocation.
///
/// Thread safety: a built (no longer appended-to) list is immutable and
/// may be probed from any number of threads, each with its own Probe.
class PackedDeweyList {
 public:
  static constexpr size_t kDefaultBlockSize = 32;

  explicit PackedDeweyList(size_t block_size = kDefaultBlockSize)
      : block_size_(block_size == 0 ? 1 : block_size) {}

  /// Appends `id` (non-empty, >= the last appended id in Dewey order).
  /// Returns false (and appends nothing) when `id` equals the last
  /// appended id, which gives builders dedup for free.
  bool Append(const DeweyId& id);

  /// Number of entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t block_size() const { return block_size_; }
  size_t block_count() const { return blocks_.size(); }

  /// The first entry of block `b`, as a view into the eagerly-decoded
  /// skip table (no arena access). Chunk planners partition a list at
  /// block boundaries with this, without decoding anything.
  DeweyView block_first(size_t b) const { return BlockFirst(b); }

  /// Entries in block `b` (block_size_ except possibly the last block).
  size_t block_entries(size_t b) const { return EntriesInBlock(b); }

  /// Bytes of the entry arena alone (the compression-ablation number).
  size_t arena_bytes() const { return arena_.size(); }

  /// Total resident bytes: arena + skip table + decoded block firsts.
  size_t memory_bytes() const {
    return arena_.capacity() * sizeof(uint8_t) +
           blocks_.capacity() * sizeof(BlockRef) +
           firsts_.capacity() * sizeof(uint32_t);
  }

  /// Batch-decodes block `b` into `out` (replacing its contents). The
  /// arena is trusted in-process input, so decode failure is a logic
  /// error, not a Status.
  void DecodeBlockInto(size_t b, DecodedBlock* out) const;

  /// \brief Per-caller probe state: the decoded current block plus the
  /// gallop hint.
  ///
  /// One Probe serves any number of Seek calls against one list; its
  /// block arena grows once and is then reused, so steady-state probing
  /// allocates nothing, and consecutive seeks into one block share a
  /// single batch decode.
  class Probe {
   public:
    Probe() = default;

    /// Forgets the hint and the cached block; the next Seek runs the
    /// cold binary search and decodes afresh.
    void Reset() {
      valid_ = false;
      loaded_list_ = nullptr;
    }

   private:
    friend class PackedDeweyList;

    DecodedBlock buf_;            // decoded block block_
    std::vector<uint32_t> pred_;  // entry index_ - 1 (when pred_valid_)
    const PackedDeweyList* loaded_list_ = nullptr;  // owner of buf_
    bool valid_ = false;       // hint usable at all
    bool at_end_ = false;      // index_ == size(): every entry < target
    bool pred_valid_ = false;  // pred_ holds entry index_ - 1
    size_t index_ = 0;         // global entry index of the current entry
    size_t block_ = 0;         // block held in buf_
    size_t in_block_ = 0;      // current entry's position inside buf_
  };

  struct SeekResult {
    /// An entry >= v exists; lower_bound(probe) views it.
    bool has_lower_bound = false;
    /// The lower bound equals v (so lm(v) = rm(v) = v's entry).
    bool exact = false;
    /// predecessor(probe) views the greatest entry < v. Only guaranteed
    /// to be populated when `exact` is false (an exact hit never needs
    /// its predecessor: lm is the hit itself).
    bool has_predecessor = false;
  };

  /// Positions `probe` at the lower bound of `v` (the first entry >= v)
  /// and, when `exact` is false, at its predecessor. With `hinted` the
  /// search gallops forward from the probe's previous position when that
  /// is sound, falling back to the cold block binary search otherwise —
  /// the result is identical either way. Component comparisons are
  /// charged to `cmp_count` exactly like DeweyId::Compare.
  SeekResult Seek(DeweyView v, bool hinted, Probe* probe,
                  uint64_t* cmp_count = nullptr) const;

  /// Views into the probe's state after Seek; valid until the next Seek
  /// (or Reset) on that probe.
  DeweyView lower_bound(const Probe& probe) const {
    return probe.buf_.entry(probe.in_block_);
  }
  DeweyView predecessor(const Probe& probe) const {
    return DeweyView(probe.pred_.data(), probe.pred_.size());
  }

  /// \brief Forward-only decoder over the whole list (Scan-layout
  /// consumers, the disk-index builder, differential tests).
  ///
  /// Internally block-buffered: each refill batch-decodes one block, and
  /// DecodeRunInto exposes whole decoded blocks to callers that iterate
  /// arenas instead of entries.
  class Decoder {
   public:
    explicit Decoder(const PackedDeweyList* list) : Decoder(list, 0) {}

    /// Decoder positioned at the first entry of block `start_block`
    /// (chunked execution: each chunk decodes only its own block range).
    /// Block firsts are stored with no shared prefix, so decoding starts
    /// clean mid-list. `start_block` past the last block yields an
    /// immediately-exhausted decoder.
    Decoder(const PackedDeweyList* list, size_t start_block)
        : list_(list),
          block_(start_block < list->block_count() ? start_block
                                                   : list->block_count()) {}

    /// Decodes the next entry as a view into the internal block arena
    /// (valid until the next refill). Returns false at the end.
    bool NextView(DeweyView* out) {
      if (buf_pos_ >= buf_.count()) {
        if (block_ >= list_->block_count()) return false;
        list_->DecodeBlockInto(block_++, &buf_);
        buf_pos_ = 0;
      }
      *out = buf_.entry(buf_pos_++);
      return true;
    }

    /// Materializing variant; reuses `out`'s component capacity.
    bool Next(DeweyId* out) {
      DeweyView v;
      if (!NextView(&v)) return false;
      out->AssignFrom(v);
      return true;
    }

    /// Replaces `out` with the next run of up to `max_entries` decoded
    /// entries (at most one block per call) and returns how many it
    /// delivered; 0 means end of list. When the run aligns with a whole
    /// pending block it is kernel-decoded straight into `out`.
    size_t DecodeRunInto(DecodedBlock* out, size_t max_entries);

   private:
    const PackedDeweyList* list_;
    size_t block_ = 0;    // next block to decode
    size_t buf_pos_ = 0;  // next unconsumed entry in buf_
    DecodedBlock buf_;
  };

  /// Decodes the whole list into owning ids (tests, oracles). One batch
  /// decode into a skip-table-pre-sized arena, then materialization.
  std::vector<DeweyId> Materialize() const;

 private:
  struct BlockRef {
    uint32_t arena_off;  // where the block's first entry starts
    uint32_t first_off;  // offset of the first id's components in firsts_
    uint32_t first_len;  // its depth
  };

  DeweyView BlockFirst(size_t b) const {
    return DeweyView(firsts_.data() + blocks_[b].first_off,
                     blocks_[b].first_len);
  }
  size_t EntriesInBlock(size_t b) const {
    const size_t begin = b * block_size_;
    const size_t n = size_ - begin;
    return n < block_size_ ? n : block_size_;
  }

  /// Ensures `probe` holds block `b` decoded (batch decode on miss).
  void LoadBlock(size_t b, Probe* probe) const;

  /// Positions the probe on the first entry of block `b` (no compare).
  void LoadBlockFirst(size_t b, Probe* probe) const;

  /// Remembers `v` as the probe's predecessor entry.
  static void SetPred(DeweyView v, Probe* probe) {
    probe->pred_.assign(v.data(), v.data() + v.depth());
    probe->pred_valid_ = true;
  }

  /// Scans the decoded block `b` forward for the first entry >= v,
  /// starting at entry `start` within the block; on entry the probe's
  /// buf_ holds block b and entry `start` compares < v. Updates the
  /// probe and returns the seek outcome (possibly positioned at the
  /// first entry of block b + 1, or at the end of the list).
  SeekResult ScanBlockFrom(DeweyView v, size_t b, size_t start, Probe* probe,
                           uint64_t* cmp_count) const;

  /// Cold path: block binary search, then ScanBlockFrom.
  SeekResult SeekCold(DeweyView v, Probe* probe, uint64_t* cmp_count) const;

  size_t block_size_;
  size_t size_ = 0;
  std::vector<uint8_t> arena_;
  std::vector<BlockRef> blocks_;
  std::vector<uint32_t> firsts_;
  std::vector<uint32_t> prev_;  // last appended id (build side)
};

}  // namespace xksearch

#endif  // XKSEARCH_DEWEY_PACKED_LIST_H_
