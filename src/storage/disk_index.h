#ifndef XKSEARCH_STORAGE_DISK_INDEX_H_
#define XKSEARCH_STORAGE_DISK_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "dewey/codec.h"
#include "dewey/decode_kernels.h"
#include "dewey/dewey_id.h"
#include "index/inverted_index.h"
#include "index/tokenizer.h"
#include "storage/bptree.h"
#include "storage/bptree_mut.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/scan_block.h"
#include "storage/wal.h"

namespace xksearch {

/// \brief Options for building / opening a disk index.
struct DiskIndexOptions {
  /// Back the index by MemPageStore instead of files. Page-level behaviour
  /// (buffer pool, "disk accesses") is identical; only persistence differs.
  bool in_memory = false;
  /// Buffer-pool frames for the scan tree, which serves both the lm/rm
  /// probes and the sequential cursors.
  size_t scan_pool_pages = 8192;
  /// Target payload bytes per posting block in the scan layout.
  size_t scan_block_bytes = 3600;
  /// Lock shards per buffer pool (0 = pick automatically). More shards
  /// means less mutex contention between concurrent queries; 1 gives the
  /// old single-LRU behaviour (useful for deterministic cache tests).
  size_t pool_shards = 0;
  /// Level-table Dewey compression for the scan blocks' (term, first id)
  /// keys (paper Section 4); when false a fixed 32-bit-per-component codec
  /// is used (ablation X2). Block payloads are delta-coded either way.
  bool compress_dewey = true;
  /// Prefix-delta compression inside posting blocks (ablation X2).
  bool delta_compress = true;
  /// Test hook: wraps each page store the index creates (Build, Open and
  /// the updater) before any pool or tree touches it. `name` is "scan",
  /// "dict" or "wal". Fault-injection tests interpose
  /// FaultInjectingPageStore here; returning the store unchanged is
  /// always valid.
  std::function<std::unique_ptr<PageStore>(std::unique_ptr<PageStore>,
                                           std::string_view name)>
      store_decorator;
};

/// \brief The XKSearch on-disk index (paper Section 4).
///
/// One B+tree serves every algorithm: the **scan tree**, whose keys are
/// (keyword, first Dewey id of a block) — keywords primary, Dewey numbers
/// secondary — and whose values are delta-compressed posting blocks with
/// a restart point every kScanRestartInterval entries (scan_block.h).
///  * The Scan Eager and Stack algorithms read a list's blocks in order
///    through a PostingCursor.
///  * An Indexed Lookup lm/rm probe is a floor descent to the block that
///    hosts the target, a binary search over that block's restart heads
///    (compared in place) and a search of one decoded group — the same
///    cost class as the paper's one descent of a (keyword, Dewey) B+tree,
///    without storing every posting a second time. rm past a block's last
///    entry is the next block's first id, read from its key.
///
/// The keyword dictionary (the paper's frequency table) is loaded into an
/// in-memory hash table at open, mirroring XKSearch's initializer.
///
/// All read operations (FindTerm, RightMatch, LeftMatch, OpenPostings
/// and the cursors they return) are safe to call from any number of
/// threads concurrently, each thread passing its own MatchProbe to the
/// lm/rm probes: the tree and dictionary are immutable after
/// open and the buffer pool is sharded and thread-safe. Each call
/// charges its page accesses to the per-query stats object it is given,
/// so accounting never crosses queries. DropCaches/WarmCaches are safe
/// too, though DropCaches fails while any query holds a pinned page.
class DiskIndex {
 public:
  struct TermInfo {
    uint32_t id;
    uint64_t frequency;
    bool operator==(const TermInfo&) const = default;
  };

  /// Hashes keywords as string views, so the dictionary answers a
  /// string_view lookup without building a std::string.
  struct KeywordHash {
    using is_transparent = void;
    size_t operator()(std::string_view keyword) const {
      return std::hash<std::string_view>{}(keyword);
    }
  };
  /// The in-memory keyword dictionary: keyword -> (term id, frequency).
  using TermDict =
      std::unordered_map<std::string, TermInfo, KeywordHash, std::equal_to<>>;

  /// Builds the scan tree and the dictionary from an in-memory index. In
  /// file mode this writes `<prefix>.scan` and `<prefix>.dict`, plus an
  /// empty `<prefix>.il` that only keeps tools which size the files of
  /// the former two-tree layout working.
  static Result<std::unique_ptr<DiskIndex>> Build(
      const InvertedIndex& src, const std::string& path_prefix,
      const DiskIndexOptions& options = {});

  /// Opens a previously built file-backed index. An index of an older
  /// format (such as the two-tree layout) is refused with NotSupported:
  /// rebuild it.
  static Result<std::unique_ptr<DiskIndex>> Open(
      const std::string& path_prefix, const DiskIndexOptions& options = {});

  DiskIndex(const DiskIndex&) = delete;
  DiskIndex& operator=(const DiskIndex&) = delete;

  /// Dictionary lookup; nullptr if the keyword does not occur.
  const TermInfo* FindTerm(std::string_view keyword) const;

  /// \brief Caller-owned state of the lm/rm probes: the probe key scratch
  /// and the last block a probe landed in — its payload, its reader (with
  /// the last decoded group), and the first id of the block after it once
  /// known.
  ///
  /// A probe whose target the cached block hosts is answered without a
  /// tree descent, so Indexed Lookup Eager's nondecreasing probes walk a
  /// block at the cost of one descent; any other target (another term, a
  /// smaller id) descends afresh. Buffers keep their capacity, so a warm
  /// probe allocates nothing. One per caller thread (DiskKeywordList holds
  /// one per query and per chunk clone), like PackedDeweyList::Probe.
  class MatchProbe {
   private:
    friend class DiskIndex;
    enum class Next : uint8_t { kUnknown, kNone, kKnown };

    std::string key_;
    uint64_t owner_ = 0;  // DiskIndex::instance_ of the cached block; 0: none
    uint32_t term_ = 0;
    /// No block of the term precedes the cached one.
    bool first_block_ = false;
    Next next_ = Next::kUnknown;
    DeweyId next_first_;
    std::string block_key_;
    std::string payload_;
    ScanBlockReader reader_;
  };

  /// Right match rm(v, S): smallest id in the term's list that is >= v,
  /// decoded into `out` (reusing its capacity). Returns false (and
  /// leaves `out` untouched) when there is none.
  Result<bool> RightMatch(uint32_t term, const DeweyId& v, MatchProbe* probe,
                          DeweyId* out, QueryStats* stats = nullptr) const;

  /// Left match lm(v, S): greatest id in the term's list that is <= v.
  Result<bool> LeftMatch(uint32_t term, const DeweyId& v, MatchProbe* probe,
                         DeweyId* out, QueryStats* stats = nullptr) const;

  /// \brief Sequential reader over one keyword list in the scan layout.
  ///
  /// Each loaded scan block is batch-decoded in one kernel call
  /// (decode_kernels.h) into a reused DecodedBlock arena; Next serves
  /// views out of that arena, and DecodeBlockInto hands whole arenas to
  /// blocked consumers without re-decoding.
  class PostingCursor {
   public:
    /// Produces the next id; false at end of list. Check status()
    /// afterwards to distinguish exhaustion from corruption.
    bool Next(DeweyId* out);
    /// Replaces `out` with the rest of the current decoded block (or the
    /// next one). Empty `out` means end of list; decode/read errors land
    /// in status() exactly like Next. Does not charge postings_read —
    /// the consuming cursor charges per delivered entry.
    bool DecodeBlockInto(DecodedBlock* out);
    const Status& status() const { return status_; }

   private:
    friend class DiskIndex;
    PostingCursor(const DiskIndex* index, uint32_t term,
                  BPlusTree::Cursor cursor)
        : index_(index), term_(term), cursor_(std::move(cursor)) {}

    bool LoadBlock();

    const DiskIndex* index_;
    uint32_t term_;
    BPlusTree::Cursor cursor_;
    /// The current block, fully decoded; decoded_pos_ is the next
    /// unconsumed entry.
    DecodedBlock decoded_;
    size_t decoded_pos_ = 0;
    QueryStats* stats_ = nullptr;
    Status status_;
    bool done_ = false;
    /// Blocks this cursor may still load; ~0 = unlimited (whole list).
    /// Chunked execution bounds each worker's cursor to its own block
    /// range so chunks tile the list without overlap.
    uint64_t blocks_remaining_ = ~uint64_t{0};
  };

  /// Opens a cursor at the head of `term`'s keyword list.
  Result<PostingCursor> OpenPostings(uint32_t term,
                                     QueryStats* stats = nullptr) const;

  /// \brief One scan-layout block of a term's list, located by key only.
  struct ScanBlockRef {
    /// The block's (term, first Dewey id) composite key, usable as a
    /// cursor seed for OpenPostingsAtBlock.
    std::string key;
    /// The first id, decoded from the key (the payload is not touched).
    DeweyId first;
  };

  /// Walks the keys of `term`'s scan blocks in order without decoding
  /// any payload: chunk planning for intra-query parallel execution.
  /// Leaf page accesses are charged to `stats` like any other read.
  Result<std::vector<ScanBlockRef>> ScanBlockRefs(
      uint32_t term, QueryStats* stats = nullptr) const;

  /// Opens a cursor at the scan block whose key is `block_key` (from
  /// ScanBlockRefs), reading at most `max_blocks` blocks before reporting
  /// end of list — one contiguous chunk of the term's postings.
  Result<PostingCursor> OpenPostingsAtBlock(uint32_t term,
                                            std::string_view block_key,
                                            uint64_t max_blocks,
                                            QueryStats* stats = nullptr) const;

  /// Opens a cursor positioned at the first posting >= `start` (a floor
  /// search to the hosting block, then an in-block skip), reporting the
  /// greatest posting < `start` through `prev`/`prev_valid`. The skipped
  /// entries are not charged as postings read — they are positioning
  /// work, not list consumption; page accesses are charged as usual.
  Result<PostingCursor> OpenPostingsFrom(uint32_t term, const DeweyId& start,
                                         DeweyId* prev, bool* prev_valid,
                                         QueryStats* stats = nullptr) const;

  /// Evicts everything from the buffer pool (cold-cache experiments).
  Status DropCaches();
  /// Loads as much as fits into the pool (hot-cache experiments).
  Status WarmCaches();

  const DeweyCodec& codec() const { return *codec_; }
  /// Tokenizer normalization the source index used (persisted in the
  /// index metadata so reopened indexes normalize queries identically).
  const TokenizerOptions& tokenizer() const { return tokenizer_; }
  size_t term_count() const { return dict_.size(); }
  uint64_t total_postings() const { return total_postings_; }
  /// Always 0: there is no Indexed Lookup tree any more. Kept for the
  /// benchmark's `il_pages` sample; delete together with that caller.
  PageId il_page_count() const { return 0; }
  PageId scan_page_count() const { return scan_store_->page_count(); }
  BufferPool* scan_pool() const { return scan_pool_.get(); }

 private:
  friend class DiskIndexUpdater;  // shares the composite-key encoding

  DiskIndex() = default;

  /// The scan-tree key of (term, id): the big-endian term id, then the
  /// level-table encoding of `id`, so byte order is (term, Dewey) order.
  static void EncodeBlockKey(const DeweyCodec& codec, uint32_t term,
                             const DeweyId& id, std::string* out);
  /// rm(v) when `right`, else lm(v): the body of RightMatch/LeftMatch.
  Result<bool> Match(uint32_t term, const DeweyId& v, bool right,
                     MatchProbe* probe, DeweyId* out, QueryStats* stats) const;
  /// True when the probe's cached block hosts `v` for `term`.
  Result<bool> Hosts(uint32_t term, DeweyView v, MatchProbe* probe) const;
  /// Descends to the block hosting `v` (the term's first block when `v`
  /// precedes it) and caches it in `probe`, with the next block's first id
  /// when `v` follows the block's last entry. False when the term has no
  /// block at all.
  Result<bool> Locate(uint32_t term, const DeweyId& v, MatchProbe* probe,
                      QueryStats* stats) const;
  Status InitTreesAndDict(const DiskIndexOptions& options);

  /// Process-unique id of this open index, tagging MatchProbe caches.
  uint64_t instance_ = 0;
  std::unique_ptr<PageStore> scan_store_;
  std::unique_ptr<PageStore> dict_store_;
  std::unique_ptr<BufferPool> scan_pool_;
  std::optional<BPlusTree> scan_tree_;
  std::optional<DeweyCodec> codec_;
  TermDict dict_;
  uint64_t total_postings_ = 0;
  TokenizerOptions tokenizer_;
};

/// \brief Incremental maintenance of a file-backed index: add or remove
/// individual postings without rebuilding.
///
/// AddPosting/RemovePosting check presence with the probes' block search
/// (a floor lookup of the hosting block in the mutable scan tree, then a
/// restart-head search inside it) and record the edit in a per-term
/// sorted pending map (an add and a remove of one posting cancel);
/// frequencies and total_postings() change at once. Finish() applies the
/// whole batch in one sorted pass: each touched block — keyed by its first
/// Dewey id — is decoded once, merged with its edits, encoded once,
/// re-keyed when its first id changes and split into blocks of at most
/// scan_block_bytes; the block puts and deletes go through one
/// BPlusTreeMut::Apply. The dictionary (with any newly assigned term ids)
/// is rewritten only when some term's (id, frequency) differs from what
/// Open loaded.
///
/// Constraint inherited from the paper's Section 4 compression: a new
/// posting's Dewey id must fit the level table computed at build time
/// (each level has one spare bit of headroom). Ids outside it are
/// rejected with InvalidArgument — rebuilding with a wider table is the
/// remedy, never a silent lossy encoding.
///
/// **Crash consistency**: the whole batch — every AddPosting/RemovePosting
/// between Open and Finish — is staged in memory (StagedPageStore
/// overlays under the scan pool and the dictionary), written to
/// `<prefix>.wal` as checksummed page-image frames, made durable by the
/// commit frame's single fsync, and only then replayed into the scan and
/// dict files. A crash at any point
/// leaves the files either exactly pre-batch (commit frame not durable:
/// recovery discards the torn log) or exactly post-batch (commit frame
/// durable: recovery replays it idempotently) — never a hybrid.
/// Recovery runs automatically in DiskIndex::Open and
/// DiskIndexUpdater::Open when a `.wal` file is present.
///
/// Open the index with DiskIndex::Open / DiskSearcher only after
/// Finish(); the updater holds the files exclusively for writing. A
/// DiskSearcher opened *before* the batch keeps serving the exact
/// pre-batch snapshot throughout (the overlay keeps the files
/// untouched until commit).
class DiskIndexUpdater {
 public:
  static Result<std::unique_ptr<DiskIndexUpdater>> Open(
      const std::string& path_prefix, const DiskIndexOptions& options = {});

  DiskIndexUpdater(const DiskIndexUpdater&) = delete;
  DiskIndexUpdater& operator=(const DiskIndexUpdater&) = delete;

  /// Adds one (keyword, node) posting; idempotent (re-adding an existing
  /// posting is a no-op). New keywords get fresh term ids. A read error
  /// of the presence probe is returned and changes nothing.
  Status AddPosting(std::string_view keyword, const DeweyId& id);

  /// Removes one posting; NotFound if it is not in the index.
  Status RemovePosting(std::string_view keyword, const DeweyId& id);

  /// Applies the batch to the scan tree, flushes it and rewrites the
  /// dictionary if it changed. The updater must not be used afterwards.
  Status Finish();

  uint64_t total_postings() const { return total_postings_; }
  uint64_t Frequency(std::string_view keyword) const;
  /// Committed-but-unapplied batches from a previous (crashed) process
  /// that Open() replayed before this updater touched anything.
  uint64_t recovered_batches() const { return recovered_batches_; }

 private:
  DiskIndexUpdater() = default;

  /// A term's pending edits: posting -> true to add, false to remove.
  using TermEdits = std::map<DeweyId, bool>;
  /// Scan-tree edits of a batch: block key -> new payload, or nullopt
  /// to delete the block.
  using BlockEdits = std::map<std::string, std::optional<std::string>>;

  /// Records a keyword's dictionary entry as Open loaded it (nullopt:
  /// absent), the first time the batch touches the keyword.
  void Touch(std::string_view keyword,
             const std::optional<DiskIndex::TermInfo>& loaded);
  /// Applies every pending edit to the scan tree.
  Status ApplyPending();
  /// True when `id` is a posting of `term` in the (staged) scan tree.
  Result<bool> Contains(uint32_t term, const DeweyId& id);
  /// Merges one term's edits into the scan blocks that host them and
  /// records the resulting block puts and deletes in `out`.
  Status MergeScanBlocks(uint32_t term, const TermEdits& edits,
                         BlockEdits* out);
  /// Encodes a sorted run of postings as blocks of at most
  /// scan_block_bytes, each keyed by its first id, into `out`.
  void EncodeScanBlocks(uint32_t term, const DecodedBlock& run,
                        BlockEdits* out) const;
  /// True when some touched term's (id, frequency) differs from Open's.
  bool DictChanged() const;
  /// Finish tail: logs every staged page as one batch, commits,
  /// then applies the batch by replaying the log into the inner stores —
  /// the same code path crash recovery takes.
  Status CommitBatch();

  DiskIndexOptions options_;
  std::unique_ptr<PageStore> scan_store_;
  std::unique_ptr<PageStore> dict_store_;
  std::unique_ptr<StagedPageStore> scan_staged_;
  std::unique_ptr<StagedPageStore> dict_staged_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> scan_pool_;
  std::unique_ptr<BPlusTreeMut> scan_tree_;
  std::optional<DeweyCodec> codec_;
  /// Presence-check state: the probe key scratch and the last block read,
  /// of term block_term_ (nullopt: none), with its reader.
  std::string probe_key_;
  std::string block_key_;
  std::string block_;
  std::optional<uint32_t> block_term_;
  ScanBlockReader block_reader_;
  bool delta_compress_ = true;
  bool compress_dewey_ = true;
  TokenizerOptions tokenizer_;
  DiskIndex::TermDict dict_;
  /// The batch's edits, by term id (ascending ids are ascending keys).
  std::map<uint32_t, TermEdits> pending_;
  /// Dictionary entries as Open loaded them, for every touched keyword.
  std::unordered_map<std::string, std::optional<DiskIndex::TermInfo>,
                     DiskIndex::KeywordHash, std::equal_to<>>
      loaded_;
  uint32_t next_term_id_ = 0;
  uint64_t total_postings_ = 0;
  uint64_t recovered_batches_ = 0;
  bool finished_ = false;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_DISK_INDEX_H_
