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
#include "storage/wal.h"

namespace xksearch {

/// \brief Options for building / opening a disk index.
struct DiskIndexOptions {
  /// Back the index by MemPageStore instead of files. Page-level behaviour
  /// (buffer pool, "disk accesses") is identical; only persistence differs.
  bool in_memory = false;
  /// Buffer-pool frames for the Indexed Lookup tree.
  size_t il_pool_pages = 8192;
  /// Buffer-pool frames for the Scan/Stack tree.
  size_t scan_pool_pages = 8192;
  /// Target payload bytes per posting block in the scan layout.
  size_t scan_block_bytes = 3600;
  /// Lock shards per buffer pool (0 = pick automatically). More shards
  /// means less mutex contention between concurrent queries; 1 gives the
  /// old single-LRU behaviour (useful for deterministic cache tests).
  size_t pool_shards = 0;
  /// Level-table Dewey compression for IL keys (paper Section 4); when
  /// false a fixed 32-bit-per-component codec is used (ablation X2).
  bool compress_dewey = true;
  /// Prefix-delta compression inside posting blocks (ablation X2).
  bool delta_compress = true;
  /// Test hook: wraps each page store the index creates (Build, Open and
  /// the updater) before any pool or tree touches it. `name` is "il",
  /// "scan", "dict" or "wal". Fault-injection tests interpose
  /// FaultInjectingPageStore here; returning the store unchanged is
  /// always valid.
  std::function<std::unique_ptr<PageStore>(std::unique_ptr<PageStore>,
                                           std::string_view name)>
      store_decorator;
};

/// \brief The XKSearch on-disk index (paper Section 4).
///
/// Holds the two B+tree organizations the paper describes:
///  * the **Indexed Lookup tree**: one B+tree whose composite keys are
///    (keyword, Dewey id) — keywords primary, Dewey numbers secondary —
///    so lm/rm match operations are single tree probes;
///  * the **Scan tree**: keyword lists chopped into delta-compressed
///    blocks keyed by (keyword, block#), read sequentially by the Scan
///    Eager and Stack algorithms.
///
/// The keyword dictionary (the paper's frequency table) is loaded into an
/// in-memory hash table at open, mirroring XKSearch's initializer.
///
/// All read operations (FindTerm, RightMatch, LeftMatch, OpenPostings
/// and the cursors they return) are safe to call from any number of
/// threads concurrently, each thread passing its own MatchProbe to the
/// lm/rm probes: the trees and dictionary are immutable after
/// open and the buffer pools are sharded and thread-safe. Each call
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

  /// Builds both layouts (plus the dictionary) from an in-memory index.
  /// In file mode this writes `<prefix>.il`, `<prefix>.scan` and
  /// `<prefix>.dict`.
  static Result<std::unique_ptr<DiskIndex>> Build(
      const InvertedIndex& src, const std::string& path_prefix,
      const DiskIndexOptions& options = {});

  /// Opens a previously built file-backed index.
  static Result<std::unique_ptr<DiskIndex>> Open(
      const std::string& path_prefix, const DiskIndexOptions& options = {});

  DiskIndex(const DiskIndex&) = delete;
  DiskIndex& operator=(const DiskIndex&) = delete;

  /// Dictionary lookup; nullptr if the keyword does not occur.
  const TermInfo* FindTerm(std::string_view keyword) const;

  /// \brief Caller-owned scratch of the lm/rm probes: the composite probe
  /// key is encoded into `key`, whose capacity the next probe reuses, so a
  /// warm probe allocates nothing. One per caller thread (DiskKeywordList
  /// holds one per query and per chunk clone), like
  /// PackedDeweyList::Probe.
  struct MatchProbe {
    std::string key;
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
    /// Raw block payload scratch (copied out of the pinned page, then
    /// immediately batch-decoded into decoded_).
    std::vector<uint8_t> block_;
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

  /// Evicts everything from both buffer pools (cold-cache experiments).
  Status DropCaches();
  /// Loads as much as fits into both pools (hot-cache experiments).
  Status WarmCaches();

  const DeweyCodec& codec() const { return *codec_; }
  /// Tokenizer normalization the source index used (persisted in the
  /// index metadata so reopened indexes normalize queries identically).
  const TokenizerOptions& tokenizer() const { return tokenizer_; }
  size_t term_count() const { return dict_.size(); }
  uint64_t total_postings() const { return total_postings_; }
  PageId il_page_count() const { return il_store_->page_count(); }
  PageId scan_page_count() const { return scan_store_->page_count(); }
  BufferPool* il_pool() const { return il_pool_.get(); }
  BufferPool* scan_pool() const { return scan_pool_.get(); }

 private:
  friend class DiskIndexUpdater;  // shares the composite-key encoding

  DiskIndex() = default;

  static void EncodeIlKey(const DeweyCodec& codec, uint32_t term,
                          const DeweyId& id, std::string* out);
  /// Decodes the match `cursor` landed on into `out`; false when it is
  /// off the end or on another term's key.
  Result<bool> MatchAt(const BPlusTree::Cursor& cursor, uint32_t term,
                       DeweyId* out, QueryStats* stats) const;
  Status InitTreesAndDict(const DiskIndexOptions& options);

  std::unique_ptr<PageStore> il_store_;
  std::unique_ptr<PageStore> scan_store_;
  std::unique_ptr<PageStore> dict_store_;
  std::unique_ptr<BufferPool> il_pool_;
  std::unique_ptr<BufferPool> scan_pool_;
  std::optional<BPlusTree> il_tree_;
  std::optional<BPlusTree> scan_tree_;
  std::optional<DeweyCodec> codec_;
  TermDict dict_;
  uint64_t total_postings_ = 0;
  TokenizerOptions tokenizer_;
};

/// \brief Incremental maintenance of a file-backed index: add or remove
/// individual postings without rebuilding.
///
/// AddPosting/RemovePosting check presence with a read-only Indexed
/// Lookup probe and record the edit in a per-term sorted pending map (an
/// add and a remove of one posting cancel); frequencies and
/// total_postings() change at once. Finish() applies the whole batch in
/// one sorted pass through the mutable B+tree on both layouts: each
/// touched Indexed Lookup leaf is merged once (BPlusTreeMut::Apply), and
/// each touched scan-layout block — keyed by its first Dewey id — is
/// decoded once by the batch kernel, merged with its edits, encoded once,
/// re-keyed when its first id changes and split into blocks of at most
/// scan_block_bytes; the block puts and deletes go through the same
/// Apply. The dictionary (with any newly assigned term ids) is rewritten
/// only when some term's (id, frequency) differs from what Open loaded.
///
/// Constraint inherited from the paper's Section 4 compression: a new
/// posting's Dewey id must fit the level table computed at build time
/// (each level has one spare bit of headroom). Ids outside it are
/// rejected with InvalidArgument — rebuilding with a wider table is the
/// remedy, never a silent lossy encoding.
///
/// **Crash consistency**: the whole batch — every AddPosting/RemovePosting
/// between Open and Finish — is staged in memory (StagedPageStore
/// overlays under the buffer pools), written to `<prefix>.wal` as
/// checksummed page-image frames, made durable by the commit frame's
/// single fsync, and only then replayed into the il/scan/dict files. A crash at any point
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

  /// Applies the batch to both trees, flushes them and rewrites the
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
  /// Applies every pending edit to both trees.
  Status ApplyPending();
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
  std::unique_ptr<PageStore> il_store_;
  std::unique_ptr<PageStore> scan_store_;
  std::unique_ptr<PageStore> dict_store_;
  std::unique_ptr<StagedPageStore> il_staged_;
  std::unique_ptr<StagedPageStore> scan_staged_;
  std::unique_ptr<StagedPageStore> dict_staged_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> il_pool_;
  std::unique_ptr<BufferPool> scan_pool_;
  std::unique_ptr<BPlusTreeMut> il_tree_;
  std::unique_ptr<BPlusTreeMut> scan_tree_;
  std::optional<DeweyCodec> codec_;
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
