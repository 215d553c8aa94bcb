#include "storage/disk_index.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <utility>

#include "common/bitio.h"

namespace xksearch {

namespace {

// Index metadata blob: level table + codec flags. Version 3 is the
// single scan tree with restart-indexed blocks; version 2 was the
// two-tree layout with an Indexed Lookup tree beside it.
constexpr uint8_t kMetaFormatVersion = 3;

// WAL frame store ids (stable on-disk protocol, do not renumber). Id 0
// was the Indexed Lookup tree's and is retired.
constexpr uint8_t kWalStoreScan = 1;
constexpr uint8_t kWalStoreDict = 2;

// Maps a WAL frame's store id to its target store.
PageStore* WalTarget(uint8_t id, PageStore* scan, PageStore* dict) {
  switch (id) {
    case kWalStoreScan:
      return scan;
    case kWalStoreDict:
      return dict;
    default:
      return nullptr;
  }
}

// Source of DiskIndex::instance_; 0 marks a MatchProbe with no block.
std::atomic<uint64_t> next_instance{1};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Opens `<prefix>.wal` (creating it when `create` allows) through the
// options' store decorator, like every other store of the index.
Result<std::unique_ptr<Wal>> OpenWalFile(const std::string& path_prefix,
                                         const DiskIndexOptions& options,
                                         bool create) {
  const std::string path = path_prefix + ".wal";
  std::unique_ptr<PageStore> store;
  if (FileExists(path)) {
    XKS_ASSIGN_OR_RETURN(store, FilePageStore::Open(path));
  } else if (create) {
    XKS_ASSIGN_OR_RETURN(store, FilePageStore::Create(path));
  } else {
    return Status::NotFound("no write-ahead log at " + path);
  }
  if (options.store_decorator) {
    store = options.store_decorator(std::move(store), "wal");
  }
  return Wal::Open(std::move(store));
}

// Records a crash recovery in the process-wide counters, but only when
// the replay actually applied something: an empty (already-reset) log is
// the normal state after every clean Finish.
void RecordRecovery(const WalRecoveryStats& stats) {
  if (stats.batches_applied == 0) return;
  WalCounters& counters = WalCounters::Instance();
  counters.recoveries.fetch_add(1, std::memory_order_relaxed);
  counters.batches_replayed.fetch_add(stats.batches_applied,
                                      std::memory_order_relaxed);
  counters.bytes_replayed.fetch_add(stats.bytes_scanned,
                                    std::memory_order_relaxed);
}

void AppendBigEndian32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>((v >> 24) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}

bool HasTermPrefix(std::string_view key, uint32_t term) {
  if (key.size() < 4) return false;
  const auto* b = reinterpret_cast<const uint8_t*>(key.data());
  return ((uint32_t{b[0]} << 24) | (uint32_t{b[1]} << 16) |
          (uint32_t{b[2]} << 8) | uint32_t{b[3]}) == term;
}

std::vector<uint8_t> EncodeIndexMeta(const LevelTable& table,
                                     bool compress_dewey, bool delta_compress,
                                     uint64_t total_postings,
                                     const TokenizerOptions& tokenizer) {
  std::vector<uint8_t> out;
  out.push_back(kMetaFormatVersion);
  out.push_back(compress_dewey ? 1 : 0);
  out.push_back(delta_compress ? 1 : 0);
  PutVarint64(&out, total_postings);
  out.push_back(tokenizer.lowercase ? 1 : 0);
  PutVarint64(&out, tokenizer.min_length);
  table.EncodeTo(&out);
  return out;
}

struct IndexMeta {
  LevelTable table;
  bool compress_dewey;
  bool delta_compress;
  uint64_t total_postings;
  TokenizerOptions tokenizer;
};

Result<IndexMeta> DecodeIndexMeta(const std::vector<uint8_t>& blob) {
  if (blob.size() < 3) return Status::Corruption("bad index metadata header");
  if (blob[0] != kMetaFormatVersion) {
    return Status::NotSupported(
        "index format version " + std::to_string(blob[0]) + ", expected " +
        std::to_string(kMetaFormatVersion) + ": rebuild the index");
  }
  IndexMeta meta;
  meta.compress_dewey = blob[1] != 0;
  meta.delta_compress = blob[2] != 0;
  size_t pos = 3;
  if (!GetVarint64(blob.data(), blob.size(), &pos, &meta.total_postings)) {
    return Status::Corruption("bad index metadata postings count");
  }
  if (pos >= blob.size()) {
    return Status::Corruption("bad index metadata tokenizer flags");
  }
  meta.tokenizer.lowercase = blob[pos++] != 0;
  uint64_t min_length = 0;
  if (!GetVarint64(blob.data(), blob.size(), &pos, &min_length)) {
    return Status::Corruption("bad index metadata tokenizer min length");
  }
  meta.tokenizer.min_length = static_cast<size_t>(min_length);
  XKS_ASSIGN_OR_RETURN(meta.table,
                       LevelTable::DecodeFrom(blob.data(), blob.size(), &pos));
  return meta;
}

}  // namespace

void DiskIndex::EncodeBlockKey(const DeweyCodec& codec, uint32_t term,
                               const DeweyId& id, std::string* out) {
  out->clear();
  AppendBigEndian32(term, out);
  codec.EncodeTo(id.view(), out);
}

Result<std::unique_ptr<DiskIndex>> DiskIndex::Build(
    const InvertedIndex& src, const std::string& path_prefix,
    const DiskIndexOptions& options) {
  std::unique_ptr<DiskIndex> index(new DiskIndex());

  if (options.in_memory) {
    index->scan_store_ = std::make_unique<MemPageStore>();
    index->dict_store_ = std::make_unique<MemPageStore>();
  } else {
    XKS_ASSIGN_OR_RETURN(index->scan_store_,
                         FilePageStore::Create(path_prefix + ".scan"));
    XKS_ASSIGN_OR_RETURN(index->dict_store_,
                         FilePageStore::Create(path_prefix + ".dict"));
    // An empty placeholder where the Indexed Lookup tree used to be, for
    // tools that still size `<prefix>.il`; nothing reads it.
    XKS_RETURN_NOT_OK(
        FilePageStore::Create(path_prefix + ".il").status());
  }
  if (options.store_decorator) {
    index->scan_store_ =
        options.store_decorator(std::move(index->scan_store_), "scan");
    index->dict_store_ =
        options.store_decorator(std::move(index->dict_store_), "dict");
  }

  const LevelTable& table =
      options.compress_dewey ? src.level_table() : LevelTable();
  const DeweyCodec codec(table);
  const std::vector<uint8_t> meta = EncodeIndexMeta(
      table, options.compress_dewey, options.delta_compress,
      src.total_postings(), src.options().tokenizer);

  const std::vector<std::string> terms = src.Terms();

  // Dictionary tree: term -> (id, frequency). Terms are sorted, and ids
  // are assigned in that order, so both trees load in key order.
  {
    BPlusTreeBuilder builder(index->dict_store_.get());
    for (uint32_t id = 0; id < terms.size(); ++id) {
      const PackedDeweyList* list = src.Find(terms[id]);
      std::vector<uint8_t> value;
      PutVarint32(&value, id);
      PutVarint64(&value, list->size());
      XKS_RETURN_NOT_OK(builder.Add(
          terms[id], std::string_view(reinterpret_cast<const char*>(
                                          value.data()),
                                      value.size())));
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }

  // Scan tree: (term, first Dewey id of the block) -> restart-indexed
  // delta-compressed run of ids. Keying blocks by their first id (rather
  // than a block ordinal) lets a probe find the block hosting any id with
  // one floor search, and lets the incremental updater locate, split and
  // re-key blocks with ordinary tree operations.
  {
    BPlusTreeBuilder builder(index->scan_store_.get());
    builder.SetMetadata(meta);
    std::string key, payload;
    for (uint32_t id = 0; id < terms.size(); ++id) {
      ScanBlockBuilder block(options.delta_compress);
      auto flush = [&]() -> Status {
        if (block.count() == 0) return Status::OK();
        payload.clear();
        block.FinishTo(&payload);
        return builder.Add(key, payload);
      };
      PackedDeweyList::Decoder postings(src.Find(terms[id]));
      DeweyId node;
      while (postings.Next(&node)) {
        if (block.count() == 0) EncodeBlockKey(codec, id, node, &key);
        block.Append(node.view());
        if (block.SizeBytes() >= options.scan_block_bytes) {
          XKS_RETURN_NOT_OK(flush());
        }
      }
      XKS_RETURN_NOT_OK(flush());
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }

  XKS_RETURN_NOT_OK(index->InitTreesAndDict(options));
  return index;
}

Result<std::unique_ptr<DiskIndex>> DiskIndex::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  if (options.in_memory) {
    return Status::InvalidArgument(
        "an in-memory index cannot be reopened; use Build");
  }
  std::unique_ptr<DiskIndex> index(new DiskIndex());
  XKS_ASSIGN_OR_RETURN(index->scan_store_,
                       FilePageStore::Open(path_prefix + ".scan"));
  XKS_ASSIGN_OR_RETURN(index->dict_store_,
                       FilePageStore::Open(path_prefix + ".dict"));
  if (options.store_decorator) {
    index->scan_store_ =
        options.store_decorator(std::move(index->scan_store_), "scan");
    index->dict_store_ =
        options.store_decorator(std::move(index->dict_store_), "dict");
  }
  // Crash recovery: a `.wal` left behind by a crashed updater may hold a
  // committed-but-unapplied batch. Replay it into the freshly opened
  // stores before any tree or dictionary is read, so the index below
  // is always a whole batch boundary — exactly pre- or post-batch.
  if (FileExists(path_prefix + ".wal")) {
    std::unique_ptr<Wal> wal;
    XKS_ASSIGN_OR_RETURN(wal,
                         OpenWalFile(path_prefix, options, /*create=*/false));
    PageStore* const scan = index->scan_store_.get();
    PageStore* const dict = index->dict_store_.get();
    XKS_ASSIGN_OR_RETURN(const WalRecoveryStats stats,
                         wal->Recover([scan, dict](uint8_t id) {
                           return WalTarget(id, scan, dict);
                         }));
    RecordRecovery(stats);
  }
  XKS_RETURN_NOT_OK(index->InitTreesAndDict(options));
  return index;
}

Status DiskIndex::InitTreesAndDict(const DiskIndexOptions& options) {
  instance_ = next_instance.fetch_add(1, std::memory_order_relaxed);
  scan_pool_ = std::make_unique<BufferPool>(
      scan_store_.get(), options.scan_pool_pages, options.pool_shards);
  XKS_ASSIGN_OR_RETURN(BPlusTree scan_tree, BPlusTree::Open(scan_pool_.get()));
  scan_tree_ = std::move(scan_tree);

  XKS_ASSIGN_OR_RETURN(IndexMeta meta,
                       DecodeIndexMeta(scan_tree_->metadata()));
  codec_.emplace(std::move(meta.table));
  total_postings_ = meta.total_postings;
  tokenizer_ = meta.tokenizer;

  // Load the dictionary (frequency table) into memory, as XKSearch's
  // initializer does. The dictionary file is not touched afterwards.
  BufferPool dict_pool(dict_store_.get(), 64);
  XKS_ASSIGN_OR_RETURN(BPlusTree dict_tree, BPlusTree::Open(&dict_pool));
  BPlusTree::Cursor cursor = dict_tree.NewCursor();
  XKS_RETURN_NOT_OK(cursor.SeekToFirst());
  while (cursor.Valid()) {
    const std::string_view value = cursor.value();
    const uint8_t* data = reinterpret_cast<const uint8_t*>(value.data());
    size_t pos = 0;
    uint32_t id = 0;
    uint64_t freq = 0;
    if (!GetVarint32(data, value.size(), &pos, &id) ||
        !GetVarint64(data, value.size(), &pos, &freq)) {
      return Status::Corruption("bad dictionary entry");
    }
    dict_.emplace(std::string(cursor.key()), TermInfo{id, freq});
    XKS_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

const DiskIndex::TermInfo* DiskIndex::FindTerm(std::string_view keyword) const {
  auto it = dict_.find(keyword);
  return it == dict_.end() ? nullptr : &it->second;
}

Result<bool> DiskIndex::RightMatch(uint32_t term, const DeweyId& v,
                                   MatchProbe* probe, DeweyId* out,
                                   QueryStats* stats) const {
  return Match(term, v, /*right=*/true, probe, out, stats);
}

Result<bool> DiskIndex::LeftMatch(uint32_t term, const DeweyId& v,
                                  MatchProbe* probe, DeweyId* out,
                                  QueryStats* stats) const {
  return Match(term, v, /*right=*/false, probe, out, stats);
}

Result<bool> DiskIndex::Match(uint32_t term, const DeweyId& v, bool right,
                              MatchProbe* probe, DeweyId* out,
                              QueryStats* stats) const {
  XKS_ASSIGN_OR_RETURN(bool hosted, Hosts(term, v.view(), probe));
  if (!hosted) {
    XKS_ASSIGN_OR_RETURN(const bool any, Locate(term, v, probe, stats));
    if (!any) return false;
  }
  DeweyView match;
  if (right) {
    XKS_ASSIGN_OR_RETURN(const bool in_block,
                         probe->reader_.Ceil(v.view(), &match));
    if (!in_block) {
      // v follows the block's last entry, so Locate read the next key.
      if (probe->next_ != MatchProbe::Next::kKnown) return false;
      match = probe->next_first_.view();
    }
  } else {
    XKS_ASSIGN_OR_RETURN(const bool found,
                         probe->reader_.Floor(v.view(), &match));
    if (!found) return false;
  }
  // One posting per returned match, as a leaf entry of an Indexed Lookup
  // tree would be charged; the in-block search is positioning work.
  if (stats != nullptr) ++stats->postings_read;
  out->AssignFrom(match);
  return true;
}

Result<bool> DiskIndex::Hosts(uint32_t term, DeweyView v,
                              MatchProbe* probe) const {
  if (probe->owner_ != instance_ || probe->term_ != term) return false;
  if (!probe->first_block_ && v.Compare(probe->reader_.first()) < 0) {
    return false;
  }
  switch (probe->next_) {
    case MatchProbe::Next::kNone:
      return true;
    case MatchProbe::Next::kKnown:
      return v.Compare(probe->next_first_.view()) < 0;
    case MatchProbe::Next::kUnknown:
      break;
  }
  // Without the next block's first id the block hosts v only up to its
  // own last entry.
  DeweyView ceil;
  return probe->reader_.Ceil(v, &ceil);
}

Result<bool> DiskIndex::Locate(uint32_t term, const DeweyId& v,
                               MatchProbe* probe, QueryStats* stats) const {
  EncodeBlockKey(*codec_, term, v, &probe->key_);
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  // Floor search: the hosting block is the last one whose first id is
  // <= v. When no block of this term precedes v, the term's first block
  // is the one after the cursor (or the tree's first, when the cursor
  // fell off the front).
  XKS_RETURN_NOT_OK(cursor.SeekForPrev(probe->key_));
  bool first_block = false;
  if (!cursor.Valid() || !HasTermPrefix(cursor.key(), term)) {
    if (cursor.Valid()) {
      XKS_RETURN_NOT_OK(cursor.Next());
    } else {
      XKS_RETURN_NOT_OK(cursor.SeekToFirst());
    }
    if (!cursor.Valid() || !HasTermPrefix(cursor.key(), term)) return false;
    first_block = true;
  }
  if (probe->owner_ != instance_ || probe->term_ != term ||
      probe->block_key_ != cursor.key()) {
    probe->owner_ = 0;
    probe->block_key_.assign(cursor.key());
    probe->payload_.assign(cursor.value());
    XKS_RETURN_NOT_OK(probe->reader_.Reset(
        reinterpret_cast<const uint8_t*>(probe->payload_.data()),
        probe->payload_.size()));
    probe->owner_ = instance_;
    probe->term_ = term;
    probe->first_block_ = false;
    probe->next_ = MatchProbe::Next::kUnknown;
  }
  probe->first_block_ = probe->first_block_ || first_block;
  if (probe->next_ != MatchProbe::Next::kUnknown || first_block) return true;
  DeweyView ceil;
  XKS_ASSIGN_OR_RETURN(const bool within, probe->reader_.Ceil(v.view(), &ceil));
  if (within) return true;
  // v follows the block's last entry: rm(v) is the next block's first id,
  // and every probe below it stays in this block.
  XKS_RETURN_NOT_OK(cursor.Next());
  if (cursor.Valid() && HasTermPrefix(cursor.key(), term)) {
    XKS_RETURN_NOT_OK(
        codec_->DecodeInto(cursor.key().substr(4), &probe->next_first_));
    probe->next_ = MatchProbe::Next::kKnown;
  } else {
    probe->next_ = MatchProbe::Next::kNone;
  }
  return true;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostings(
    uint32_t term, QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  // The bare 4-byte term prefix sorts before every (term, dewey) key.
  std::string key;
  AppendBigEndian32(term, &key);
  XKS_RETURN_NOT_OK(cursor.Seek(key));
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  return pc;
}

Result<std::vector<DiskIndex::ScanBlockRef>> DiskIndex::ScanBlockRefs(
    uint32_t term, QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  std::string prefix;
  AppendBigEndian32(term, &prefix);
  XKS_RETURN_NOT_OK(cursor.Seek(prefix));
  std::vector<ScanBlockRef> blocks;
  while (cursor.Valid() && HasTermPrefix(cursor.key(), term)) {
    ScanBlockRef ref;
    ref.key.assign(cursor.key());
    XKS_RETURN_NOT_OK(codec_->DecodeInto(cursor.key().substr(4), &ref.first));
    blocks.push_back(std::move(ref));
    XKS_RETURN_NOT_OK(cursor.Next());
  }
  return blocks;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostingsAtBlock(
    uint32_t term, std::string_view block_key, uint64_t max_blocks,
    QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  XKS_RETURN_NOT_OK(cursor.Seek(block_key));
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  pc.blocks_remaining_ = max_blocks;
  return pc;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostingsFrom(
    uint32_t term, const DeweyId& start, DeweyId* prev, bool* prev_valid,
    QueryStats* stats) const {
  *prev_valid = false;
  std::string probe;
  EncodeBlockKey(*codec_, term, start, &probe);
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  // Floor search: the hosting block is the last one whose first id is
  // <= start. When no block of this term precedes `start`, the cursor
  // starts at the term's first block with no predecessor to report.
  XKS_RETURN_NOT_OK(cursor.SeekForPrev(probe));
  if (!cursor.Valid() || !HasTermPrefix(cursor.key(), term)) {
    return OpenPostings(term, stats);
  }
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  // Skip entries < start, remembering the last one skipped as the
  // predecessor. Positioning decode is deliberately not charged as
  // postings read: the algorithm never consumes these entries. (The
  // uncharged skip is bounded by one block: later blocks start >= start.)
  // The block arrives batch-decoded, so skipping is just advancing the
  // arena position — the first entry >= start stays unconsumed for Next.
  for (;;) {
    if (pc.decoded_pos_ >= pc.decoded_.count()) {
      if (pc.done_ || !pc.LoadBlock()) break;
    }
    const DeweyView v = pc.decoded_.entry(pc.decoded_pos_);
    if (v.Compare(start.view()) >= 0) break;
    prev->AssignFrom(v);
    *prev_valid = true;
    ++pc.decoded_pos_;
  }
  XKS_RETURN_NOT_OK(pc.status_);
  return pc;
}

bool DiskIndex::PostingCursor::LoadBlock() {
  if (!cursor_.Valid() || !HasTermPrefix(cursor_.key(), term_) ||
      blocks_remaining_ == 0) {
    done_ = true;
    return false;
  }
  --blocks_remaining_;
  const std::string_view value = cursor_.value();
  decoded_.Clear();
  decoded_pos_ = 0;
  status_ = ScanBlockReader::DecodeAll(
      reinterpret_cast<const uint8_t*>(value.data()), value.size(),
      &decoded_);
  if (!status_.ok()) {
    done_ = true;
    return false;
  }
  status_ = cursor_.Next();
  if (!status_.ok()) {
    done_ = true;
    return false;
  }
  return true;
}

bool DiskIndex::PostingCursor::Next(DeweyId* out) {
  for (;;) {
    if (decoded_pos_ < decoded_.count()) {
      out->AssignFrom(decoded_.entry(decoded_pos_++));
      if (stats_ != nullptr) ++stats_->postings_read;
      return true;
    }
    if (done_) return false;
    if (!LoadBlock()) return false;
  }
}

bool DiskIndex::PostingCursor::DecodeBlockInto(DecodedBlock* out) {
  out->Clear();
  for (;;) {
    if (decoded_pos_ < decoded_.count()) {
      if (decoded_pos_ == 0) {
        // Whole block unconsumed: hand the arena over wholesale (the
        // buffers ping-pong between cursor and consumer, both reused).
        std::swap(*out, decoded_);
        decoded_.Clear();
      } else {
        for (size_t i = decoded_pos_; i < decoded_.count(); ++i) {
          out->Append(decoded_.entry(i));
        }
        decoded_pos_ = decoded_.count();
      }
      return true;
    }
    if (done_) return true;  // empty out = end of list (or status_ error)
    if (!LoadBlock()) return true;
  }
}

Status DiskIndex::DropCaches() { return scan_pool_->DropAll(); }

Status DiskIndex::WarmCaches() { return scan_pool_->WarmAll(); }

Result<std::unique_ptr<DiskIndexUpdater>> DiskIndexUpdater::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  if (options.in_memory) {
    return Status::InvalidArgument(
        "the updater maintains file-backed indexes only");
  }
  std::unique_ptr<DiskIndexUpdater> updater(new DiskIndexUpdater());
  updater->options_ = options;
  XKS_ASSIGN_OR_RETURN(updater->scan_store_,
                       FilePageStore::Open(path_prefix + ".scan"));
  XKS_ASSIGN_OR_RETURN(updater->dict_store_,
                       FilePageStore::Open(path_prefix + ".dict"));
  if (options.store_decorator) {
    updater->scan_store_ =
        options.store_decorator(std::move(updater->scan_store_), "scan");
    updater->dict_store_ =
        options.store_decorator(std::move(updater->dict_store_), "dict");
  }
  // Replay any committed batch a crashed predecessor left behind, then
  // stack the staging overlays: from here on nothing reaches the inner
  // files until this updater's own batch commits.
  XKS_ASSIGN_OR_RETURN(updater->wal_,
                       OpenWalFile(path_prefix, options, /*create=*/true));
  PageStore* const scan = updater->scan_store_.get();
  PageStore* const dict = updater->dict_store_.get();
  XKS_ASSIGN_OR_RETURN(const WalRecoveryStats stats,
                       updater->wal_->Recover([scan, dict](uint8_t id) {
                         return WalTarget(id, scan, dict);
                       }));
  RecordRecovery(stats);
  updater->recovered_batches_ = stats.batches_applied;
  updater->scan_staged_ =
      std::make_unique<StagedPageStore>(updater->scan_store_.get());
  updater->dict_staged_ =
      std::make_unique<StagedPageStore>(updater->dict_store_.get());
  updater->scan_pool_ = std::make_unique<BufferPool>(
      updater->scan_staged_.get(), options.scan_pool_pages);
  XKS_ASSIGN_OR_RETURN(BPlusTreeMut scan_tree,
                       BPlusTreeMut::Open(updater->scan_pool_.get()));
  updater->scan_tree_ = std::make_unique<BPlusTreeMut>(std::move(scan_tree));

  XKS_ASSIGN_OR_RETURN(IndexMeta meta,
                       DecodeIndexMeta(updater->scan_tree_->metadata()));
  updater->codec_.emplace(std::move(meta.table));
  updater->delta_compress_ = meta.delta_compress;
  updater->compress_dewey_ = meta.compress_dewey;
  updater->tokenizer_ = meta.tokenizer;
  updater->total_postings_ = meta.total_postings;

  // Load the dictionary (already recovered above); term ids stay stable,
  // new terms extend it.
  {
    BufferPool dict_pool(updater->dict_store_.get(), 64);
    XKS_ASSIGN_OR_RETURN(BPlusTree dict_tree, BPlusTree::Open(&dict_pool));
    BPlusTree::Cursor cursor = dict_tree.NewCursor();
    XKS_RETURN_NOT_OK(cursor.SeekToFirst());
    while (cursor.Valid()) {
      const std::string_view value = cursor.value();
      const uint8_t* data = reinterpret_cast<const uint8_t*>(value.data());
      size_t pos = 0;
      uint32_t id = 0;
      uint64_t freq = 0;
      if (!GetVarint32(data, value.size(), &pos, &id) ||
          !GetVarint64(data, value.size(), &pos, &freq)) {
        return Status::Corruption("bad dictionary entry");
      }
      updater->dict_.emplace(std::string(cursor.key()),
                             DiskIndex::TermInfo{id, freq});
      updater->next_term_id_ = std::max(updater->next_term_id_, id + 1);
      XKS_RETURN_NOT_OK(cursor.Next());
    }
  }
  return updater;
}

uint64_t DiskIndexUpdater::Frequency(std::string_view keyword) const {
  auto it = dict_.find(keyword);
  return it == dict_.end() ? 0 : it->second.frequency;
}

void DiskIndexUpdater::Touch(
    std::string_view keyword,
    const std::optional<DiskIndex::TermInfo>& loaded) {
  if (!loaded_.contains(keyword)) loaded_.emplace(keyword, loaded);
}

Status DiskIndexUpdater::AddPosting(std::string_view keyword,
                                    const DeweyId& id) {
  assert(!finished_);
  if (!codec_->CanEncode(id)) {
    return Status::InvalidArgument(
        "Dewey id " + id.ToString() +
        " exceeds the index's level table; rebuild with a wider table");
  }
  if (keyword.empty()) {
    return Status::InvalidArgument("empty keyword");
  }
  auto it = dict_.find(keyword);
  if (it == dict_.end()) {
    // A new keyword (or one emptied earlier in this batch): its fresh
    // term id has no posting on disk, so there is nothing to probe.
    Touch(keyword, std::nullopt);
    it = dict_.emplace(std::string(keyword),
                       DiskIndex::TermInfo{next_term_id_++, 0})
             .first;
    pending_[it->second.id].emplace(id, true);
  } else {
    TermEdits& edits = pending_[it->second.id];
    auto edit = edits.find(id);
    if (edit != edits.end()) {
      if (edit->second) return Status::OK();  // added earlier this batch
      edits.erase(edit);  // re-adding cancels the pending remove
    } else {
      XKS_ASSIGN_OR_RETURN(const bool present, Contains(it->second.id, id));
      if (present) return Status::OK();
      edits.emplace(id, true);
    }
    Touch(keyword, it->second);
  }
  ++it->second.frequency;
  ++total_postings_;
  return Status::OK();
}

Status DiskIndexUpdater::RemovePosting(std::string_view keyword,
                                       const DeweyId& id) {
  assert(!finished_);
  auto it = dict_.find(keyword);
  if (it == dict_.end()) {
    return Status::NotFound("keyword not in index");
  }
  // An id outside the level table was never stored (and its probe key
  // would be lossy).
  if (!codec_->CanEncode(id)) return Status::NotFound("key not present");
  TermEdits& edits = pending_[it->second.id];
  auto edit = edits.find(id);
  if (edit != edits.end()) {
    if (!edit->second) return Status::NotFound("key not present");
    edits.erase(edit);  // removing cancels the pending add
  } else {
    XKS_ASSIGN_OR_RETURN(const bool present, Contains(it->second.id, id));
    if (!present) return Status::NotFound("key not present");
    edits.emplace(id, false);
  }
  Touch(keyword, it->second);
  --it->second.frequency;
  --total_postings_;
  if (it->second.frequency == 0) dict_.erase(it);
  return Status::OK();
}

Result<bool> DiskIndexUpdater::Contains(uint32_t term, const DeweyId& id) {
  // The tree changes only in Finish, so the last block read stays valid
  // for the whole batch: an id between its first and last entry is
  // answered from it. (Batches arrive sorted, so most ids are.)
  bool cached = block_term_ == term &&
                id.view().Compare(block_reader_.first()) >= 0;
  DeweyView floor;
  if (cached) {
    XKS_ASSIGN_OR_RETURN(cached, block_reader_.Ceil(id.view(), &floor));
  }
  if (!cached) {
    // The block hosting id is the last one whose first id <= id; an id
    // before the term's first block is absent.
    block_term_.reset();
    DiskIndex::EncodeBlockKey(*codec_, term, id, &probe_key_);
    XKS_ASSIGN_OR_RETURN(
        const bool found,
        scan_tree_->FindFloor(probe_key_, &block_key_, &block_));
    if (!found || !HasTermPrefix(block_key_, term)) return false;
    XKS_RETURN_NOT_OK(block_reader_.Reset(
        reinterpret_cast<const uint8_t*>(block_.data()), block_.size()));
    block_term_ = term;
  }
  XKS_ASSIGN_OR_RETURN(const bool any, block_reader_.Floor(id.view(), &floor));
  return any && floor.Compare(id.view()) == 0;
}

Status DiskIndexUpdater::ApplyPending() {
  BlockEdits block_edits;
  for (const auto& [term, edits] : pending_) {
    XKS_RETURN_NOT_OK(MergeScanBlocks(term, edits, &block_edits));
  }
  pending_.clear();
  std::vector<BPlusTreeMut::Edit> scan_edits;
  scan_edits.reserve(block_edits.size());
  for (auto& [key, payload] : block_edits) {
    scan_edits.push_back({key, payload.value_or(""), !payload.has_value()});
  }
  return scan_tree_->Apply(scan_edits);
}

Status DiskIndexUpdater::MergeScanBlocks(uint32_t term,
                                         const TermEdits& edits,
                                         BlockEdits* out) {
  std::string term_prefix;
  AppendBigEndian32(term, &term_prefix);
  std::string probe, block_key, payload, next_key;
  DeweyId next_first;
  DecodedBlock block, merged;
  auto edit = edits.begin();
  while (edit != edits.end()) {
    // The hosting block is the last one whose first id <= the edit's id;
    // ids before every block join the term's first block.
    DiskIndex::EncodeBlockKey(*codec_, term, edit->first, &probe);
    XKS_ASSIGN_OR_RETURN(bool found,
                         scan_tree_->FindFloor(probe, &block_key, &payload));
    if (!found || !HasTermPrefix(block_key, term)) {
      XKS_ASSIGN_OR_RETURN(
          found, scan_tree_->FindCeil(term_prefix, &block_key, &payload));
      found = found && HasTermPrefix(block_key, term);
    }
    // The block's edits stop where the term's next block starts.
    auto end = edits.end();
    block.Clear();
    if (found) {
      XKS_ASSIGN_OR_RETURN(
          const bool has_next,
          scan_tree_->FindCeil(block_key + '\0', &next_key, nullptr));
      if (has_next && HasTermPrefix(next_key, term)) {
        XKS_RETURN_NOT_OK(codec_->DecodeInto(
            std::string_view(next_key).substr(4), &next_first));
        end = edits.lower_bound(next_first);
      }
      XKS_RETURN_NOT_OK(ScanBlockReader::DecodeAll(
          reinterpret_cast<const uint8_t*>(payload.data()), payload.size(),
          &block));
      // Deleted now; a new block under the same key overwrites this.
      (*out)[block_key] = std::nullopt;
    }

    merged.Clear();
    size_t i = 0;
    for (; edit != end; ++edit) {
      const DeweyView id = edit->first.view();
      while (i < block.count() && block.entry(i).Compare(id) < 0) {
        merged.Append(block.entry(i++));
      }
      const bool hit = i < block.count() && block.entry(i).Compare(id) == 0;
      if (hit) ++i;
      if (edit->second) {
        merged.Append(id);
      } else if (!hit) {
        return Status::Corruption("posting missing from scan layout");
      }
    }
    for (; i < block.count(); ++i) merged.Append(block.entry(i));
    EncodeScanBlocks(term, merged, out);
  }
  return Status::OK();
}

void DiskIndexUpdater::EncodeScanBlocks(uint32_t term,
                                        const DecodedBlock& run,
                                        BlockEdits* out) const {
  const size_t n = run.count();
  if (n == 0) return;
  // The fewest blocks within the budget, each cut once it holds an even
  // share of the bytes (a lone entry above the budget gets its own).
  ScanBlockBuilder builder(delta_compress_);
  for (size_t k = 0; k < n; ++k) builder.Append(run.entry(k));
  const size_t total = builder.SizeBytes();
  const size_t budget = std::max<size_t>(1, options_.scan_block_bytes);
  const size_t blocks = (total + budget - 1) / budget;
  const size_t target = (total + blocks - 1) / blocks;
  builder = ScanBlockBuilder(delta_compress_);
  DeweyId first;
  std::string key;
  size_t a = 0;
  while (a < n) {
    builder.Append(run.entry(a));
    size_t b = a + 1;
    while (b < n && builder.SizeBytes() < target &&
           builder.SizeBytes() + builder.AppendCost(run.entry(b)) <= budget) {
      builder.Append(run.entry(b++));
    }
    first.AssignFrom(run.entry(a));
    DiskIndex::EncodeBlockKey(*codec_, term, first, &key);
    std::string& payload = (*out)[key].emplace();
    builder.FinishTo(&payload);
    a = b;
  }
}

bool DiskIndexUpdater::DictChanged() const {
  for (const auto& [keyword, loaded] : loaded_) {
    auto it = dict_.find(keyword);
    const std::optional<DiskIndex::TermInfo> now =
        it == dict_.end() ? std::nullopt
                          : std::optional<DiskIndex::TermInfo>(it->second);
    if (now != loaded) return true;
  }
  return false;
}

Status DiskIndexUpdater::Finish() {
  assert(!finished_);
  finished_ = true;
  XKS_RETURN_NOT_OK(ApplyPending());

  const LevelTable& table = codec_->level_table();
  const std::vector<uint8_t> meta = EncodeIndexMeta(
      table, compress_dewey_, delta_compress_, total_postings_, tokenizer_);
  scan_tree_->SetMetadata(meta);
  XKS_RETURN_NOT_OK(scan_tree_->Flush());

  // Rewrite the dictionary from scratch when it changed (it is small and
  // the bulk builder wants sorted keys anyway). The rebuild goes through
  // the dict overlay (emptied first — the bulk builder wants a fresh
  // store), so like the tree flush above it is part of the staged
  // batch, not an in-place file rewrite.
  if (DictChanged()) {
    std::vector<std::string> terms;
    terms.reserve(dict_.size());
    for (const auto& [term, info] : dict_) terms.push_back(term);
    std::sort(terms.begin(), terms.end());
    XKS_RETURN_NOT_OK(dict_staged_->Truncate(0));
    BPlusTreeBuilder builder(dict_staged_.get());
    for (const std::string& term : terms) {
      const DiskIndex::TermInfo& info = dict_.find(term)->second;
      std::vector<uint8_t> value;
      PutVarint32(&value, info.id);
      PutVarint64(&value, info.frequency);
      XKS_RETURN_NOT_OK(builder.Add(
          term, std::string_view(reinterpret_cast<const char*>(value.data()),
                                 value.size())));
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }
  return CommitBatch();
}

Status DiskIndexUpdater::CommitBatch() {
  XKS_RETURN_NOT_OK(wal_->AppendBegin(total_postings_));
  const struct {
    uint8_t id;
    StagedPageStore* staged;
  } stores[] = {{kWalStoreScan, scan_staged_.get()},
                {kWalStoreDict, dict_staged_.get()}};
  for (const auto& entry : stores) {
    // A store the batch left alone (the dictionary, most batches) logs
    // nothing, so the apply step neither rewrites nor syncs it.
    if (entry.staged->staged_count() == 0 &&
        entry.staged->page_count() == entry.staged->inner()->page_count()) {
      continue;
    }
    XKS_RETURN_NOT_OK(wal_->AppendTruncate(entry.id,
                                           entry.staged->page_count()));
    for (const PageId page : entry.staged->StagedPageIds()) {
      XKS_RETURN_NOT_OK(wal_->AppendPageImage(entry.id, page,
                                              *entry.staged->StagedPage(page)));
    }
  }
  // The single durability barrier: after this fsync the batch survives
  // any crash; before it, a crash leaves the inner files untouched.
  XKS_RETURN_NOT_OK(wal_->Commit());
  // Apply by replaying the log into the real files — the exact code path
  // crash recovery takes, so every successful Finish exercises it.
  PageStore* const scan = scan_staged_->inner();
  PageStore* const dict = dict_staged_->inner();
  XKS_ASSIGN_OR_RETURN(const WalRecoveryStats stats,
                       wal_->Recover([scan, dict](uint8_t id) {
                         return WalTarget(id, scan, dict);
                       }));
  if (stats.batches_applied != 1) {
    return Status::Internal("batch apply replayed " +
                            std::to_string(stats.batches_applied) +
                            " batches, expected exactly 1");
  }
  return Status::OK();
}

}  // namespace xksearch
