#include "serve/query_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/bitio.h"
#include "dewey/decode_kernels.h"

namespace xksearch {
namespace serve {

namespace {

/// Sizing pass of an encoding: counts the bytes it will take.
struct SizeSink {
  size_t size = 0;

  void Varint(uint64_t v) {
    do {
      ++size;
      v >>= 7;
    } while (v != 0);
  }
  void Bytes(std::string_view bytes) { size += bytes.size(); }
};

/// Writing pass: appends into a buffer the sizing pass measured.
struct WriteSink {
  char* out;

  void Varint(uint64_t v) {
    while (v >= 0x80) {
      *out++ = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    *out++ = static_cast<char>(v);
  }
  void Bytes(std::string_view bytes) {
    std::memcpy(out, bytes.data(), bytes.size());
    out += bytes.size();
  }
};

/// Forward reader over an encoding; every read is bounds-checked.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  explicit Reader(std::string_view bytes)
      : data(reinterpret_cast<const uint8_t*>(bytes.data())),
        size(bytes.size()) {}

  bool Varint(uint64_t* v) { return GetVarint64(data, size, &pos, v); }
  bool Bytes(size_t n, std::string* out) {
    if (n > size - pos) return false;
    out->assign(reinterpret_cast<const char*>(data) + pos, n);
    pos += n;
    return true;
  }
};

template <typename Sink>
void EncodeKey(const std::vector<std::string>& keywords,
               const SearchOptions& options, Sink* sink) {
  sink->Varint(static_cast<uint64_t>(options.algorithm));
  sink->Varint(static_cast<uint64_t>(options.semantics));
  sink->Varint(options.block_size);
  sink->Varint(std::bit_cast<uint64_t>(options.auto_ratio_threshold));
  for (const std::string& word : keywords) {
    sink->Bytes(word);
    sink->Bytes(std::string_view("\0", 1));
  }
}

/// Number of SearchOptions varints EncodeKey writes before the keywords.
constexpr int kKeyOptionFields = 4;

/// The result part of an entry. Nodes come last: their count, the
/// positions of empty ids (DecodeBlock rejects an entry that is
/// shared + added == 0), then every other id as
/// varint(shared) varint(added) varint(component)*, sharing its prefix
/// with the previous non-empty id whatever order the ids are in.
template <typename Sink>
void EncodeResult(const SearchResult& result, Sink* sink) {
  sink->Varint(static_cast<uint64_t>(result.algorithm));
  for (const auto field : kQueryStatsFields) sink->Varint(result.stats.*field);
  sink->Varint(result.keywords.size());
  for (const std::string& word : result.keywords) {
    sink->Varint(word.size());
    sink->Bytes(word);
  }
  sink->Varint(result.nodes.size());
  sink->Varint(static_cast<uint64_t>(std::count_if(
      result.nodes.begin(), result.nodes.end(),
      [](const DeweyId& id) { return id.empty(); })));
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (result.nodes[i].empty()) sink->Varint(i);
  }
  DeweyView prev;
  for (const DeweyId& id : result.nodes) {
    if (id.empty()) continue;
    const DeweyView view = id.view();
    const size_t shared = prev.CommonPrefixLength(view);
    sink->Varint(shared);
    sink->Varint(view.depth() - shared);
    for (size_t i = shared; i < view.depth(); ++i) {
      sink->Varint(view.component(i));
    }
    prev = view;
  }
}

bool Cacheable(const SearchResult& result) {
  return std::all_of(result.nodes.begin(), result.nodes.end(),
                     [](const DeweyId& id) {
                       return id.depth() <= kMaxComponentsPerEntry;
                     });
}

/// Heap taken by one n-byte allocation: glibc malloc adds an 8-byte
/// header, rounds to 16 bytes and hands out at least 32.
size_t HeapBytes(size_t n) {
  return std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

Status Malformed() {
  return Status::Corruption("malformed query cache entry");
}

/// Ids DecodeBlock turns out per call when a hit is decoded.
constexpr size_t kDecodeRun = 256;

/// Decode scratch above this size (a run of very deep ids) is released
/// after use rather than pinned to the thread.
constexpr size_t kKeepScratchBytes = 64 << 10;

/// TinyLFU's sample size per entry a shard can hold: its counters are
/// halved every 10 x capacity additions.
constexpr uint64_t kSamplesPerEntry = 10;

/// Odd multipliers that spread a key's hash over the sketch's four rows.
constexpr std::array<uint64_t, 4> kRowSeeds = {
    0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull,
    0xd6e8feb86659fd93ull};

constexpr int kCounterBits = 4;
constexpr uint32_t kCounterMax = (1u << kCounterBits) - 1;
constexpr size_t kCountersPerWord = 64 / kCounterBits;

}  // namespace

QueryCacheKey::QueryCacheKey(const std::vector<std::string>& keywords,
                             const SearchOptions& options) {
  SizeSink size;
  EncodeKey(keywords, options, &size);
  bytes_.resize(size.size);
  WriteSink write{bytes_.data()};
  EncodeKey(keywords, options, &write);
}

std::vector<std::string> QueryCacheKey::keywords() const {
  Reader reader(bytes_);
  uint64_t ignored = 0;
  for (int i = 0; i < kKeyOptionFields; ++i) reader.Varint(&ignored);
  std::vector<std::string> words;
  std::string_view rest = std::string_view(bytes_).substr(reader.pos);
  while (!rest.empty()) {
    const size_t end = rest.find('\0');
    words.emplace_back(rest.substr(0, end));
    rest.remove_prefix(end + 1);
  }
  return words;
}

QueryCache::FrequencySketch::FrequencySketch(size_t width,
                                             uint64_t sample_size)
    : table_(kRowSeeds.size() * width / kCountersPerWord),
      words_per_row_(width / kCountersPerWord),
      index_shift_(64 - std::countr_zero(std::max<size_t>(width, 1))),
      sample_size_(sample_size) {}

std::pair<size_t, int> QueryCache::FrequencySketch::Slot(size_t hash,
                                                          int row) const {
  const uint64_t counter = (hash * kRowSeeds[row]) >> index_shift_;
  return {row * words_per_row_ + counter / kCountersPerWord,
          static_cast<int>(counter % kCountersPerWord) * kCounterBits};
}

void QueryCache::FrequencySketch::Add(size_t hash) {
  if (table_.empty()) return;
  for (int row = 0; row < static_cast<int>(kRowSeeds.size()); ++row) {
    const auto [word, bit] = Slot(hash, row);
    if (((table_[word] >> bit) & kCounterMax) != kCounterMax) {
      table_[word] += uint64_t{1} << bit;
    }
  }
  if (++additions_ < sample_size_) return;
  // Halve every counter: shift each word, then clear the bit each
  // counter took from the one above it.
  for (uint64_t& word : table_) word = (word >> 1) & 0x7777777777777777ull;
  additions_ /= 2;
}

uint32_t QueryCache::FrequencySketch::Estimate(size_t hash) const {
  if (table_.empty()) return 0;
  uint32_t estimate = kCounterMax;
  for (int row = 0; row < static_cast<int>(kRowSeeds.size()); ++row) {
    const auto [word, bit] = Slot(hash, row);
    estimate = std::min(
        estimate, static_cast<uint32_t>((table_[word] >> bit) & kCounterMax));
  }
  return estimate;
}

QueryCache::QueryCache(const Options& options) {
  const size_t shard_count = std::bit_ceil(std::max<size_t>(1, options.shards));
  shard_mask_ = shard_count - 1;
  const size_t slice = options.capacity_bytes / shard_count;
  // Every entry is charged at least EntryCharge(0), which bounds the
  // entries a slice can hold. Each sketch row is about that wide, and a
  // slice too small for any entry gets no sketch.
  const size_t max_entries = slice / EntryCharge(0);
  const size_t width =
      max_entries == 0
          ? 0
          : std::max(kCountersPerWord, std::bit_floor(max_entries));
  const size_t table_bytes = kRowSeeds.size() * width * kCounterBits / 8;
  const size_t sketch_charge = width == 0 ? 0 : HeapBytes(table_bytes);
  shard_budget_bytes_ = slice - sketch_charge;
  sketch_bytes_ = sketch_charge * shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(width, kSamplesPerEntry * max_entries));
  }
}

QueryCache::Shard& QueryCache::ShardFor(size_t hash) {
  // Re-scramble the map hash so shard choice and bucket choice within a
  // shard use different bits.
  const uint64_t h = hash * 0x9e3779b97f4a7c15ull;
  return *shards_[(h >> 32) & shard_mask_];
}

bool QueryCache::Lookup(const QueryCacheKey& key, std::string* encoded) {
  const size_t hash = QueryCacheKeyHash()(key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.sketch.Add(hash);
  auto it = shard.map.find(key.bytes());
  if (it == shard.map.end()) {
    ++misses_;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++hits_;
  encoded->assign(it->second->result());
  return true;
}

std::optional<SearchResult> QueryCache::Lookup(const QueryCacheKey& key) {
  // Keeps its capacity for this thread's next hit; at most one shard's
  // budget.
  thread_local std::string encoded;
  if (!Lookup(key, &encoded)) return std::nullopt;
  SearchResult result;
  if (!Decode(encoded, &result).ok()) return std::nullopt;
  return result;
}

Status QueryCache::Decode(std::string_view encoded, SearchResult* out) {
  Reader reader(encoded);
  uint64_t v = 0;
  if (!reader.Varint(&v)) return Malformed();
  out->algorithm = static_cast<SlcaAlgorithm>(v);
  for (const auto field : kQueryStatsFields) {
    if (!reader.Varint(&(out->stats.*field))) return Malformed();
  }
  uint64_t count = 0;
  if (!reader.Varint(&count) || count > encoded.size()) return Malformed();
  out->keywords.resize(count);
  for (std::string& word : out->keywords) {
    if (!reader.Varint(&v) || !reader.Bytes(v, &word)) return Malformed();
  }

  uint64_t empties = 0;
  if (!reader.Varint(&count) || !reader.Varint(&empties) ||
      empties > count || count > encoded.size()) {
    return Malformed();
  }
  out->nodes.clear();
  out->nodes.reserve(count);
  // The empty ids' positions precede the delta stream; they are read a
  // second time, through `positions`, while the nodes are laid out.
  Reader positions = reader;
  for (uint64_t e = 0; e < empties; ++e) {
    if (!reader.Varint(&v)) return Malformed();
  }
  uint64_t next_empty = count;
  auto advance = [&] {
    next_empty = count;
    if (empties == 0) return true;
    --empties;
    return positions.Varint(&next_empty);
  };
  if (!advance()) return Malformed();
  // The stream is decoded a bounded run at a time, each run chaining off
  // the last id already materialized, so the scratch stays small
  // however long the answer is.
  thread_local DecodedBlock block;
  block.Clear();
  size_t pos = reader.pos;
  size_t used = 0;
  const uint32_t* carry = nullptr;
  size_t carry_len = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (i == next_empty) {
      out->nodes.emplace_back();
      if (!advance()) return Malformed();
      continue;
    }
    if (used == block.count()) {
      block.Clear();
      used = 0;
      XKS_RETURN_NOT_OK(DecodeBlock(reader.data, reader.size, &pos,
                                    kDecodeRun, carry, carry_len, &block));
      if (block.empty()) return Malformed();
    }
    out->nodes.emplace_back().AssignFrom(block.entry(used++));
    carry = out->nodes.back().components().data();
    carry_len = out->nodes.back().depth();
  }
  if (pos != reader.size || used != block.count()) return Malformed();
  if (block.memory_bytes() > kKeepScratchBytes) block = DecodedBlock();
  return Status::OK();
}

void QueryCache::Insert(const QueryCacheKey& key, const SearchResult& result) {
  const size_t size = EncodedBytes(key, result);
  const size_t charge = EntryCharge(size);
  if (charge > shard_budget_bytes_ || size > UINT32_MAX ||
      !Cacheable(result)) {
    ++oversize_rejects_;
    return;
  }
  Entry entry;
  entry.data = std::make_unique_for_overwrite<char[]>(size);
  entry.key_bytes = static_cast<uint32_t>(key.bytes().size());
  entry.size = static_cast<uint32_t>(size);
  WriteSink write{entry.data.get()};
  write.Bytes(key.bytes());
  EncodeResult(result, &write);

  const size_t hash = QueryCacheKeyHash()(key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key.bytes());
  if (it != shard.map.end()) {
    const auto old = it->second;
    shard.bytes -= EntryCharge(old->size);
    shard.map.erase(it);
    shard.lru.erase(old);
  } else if (!Admit(shard, hash, charge)) {
    ++admission_rejects_;
    return;
  }
  // Admit() passed the victims this evicts; charge <= budget, so the
  // loop ends by the time the shard is empty.
  while (shard.bytes + charge > shard_budget_bytes_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= EntryCharge(victim.size);
    shard.map.erase(victim.key());
    shard.lru.pop_back();
    ++evictions_;
  }
  shard.lru.push_front(std::move(entry));
  shard.map.emplace(shard.lru.front().key(), shard.lru.begin());
  shard.bytes += charge;
  ++insertions_;
}

bool QueryCache::Admit(const Shard& shard, size_t hash, size_t charge) const {
  const uint32_t candidate = shard.sketch.Estimate(hash);
  size_t bytes = shard.bytes;
  for (auto victim = shard.lru.rbegin(); bytes + charge > shard_budget_bytes_;
       ++victim) {
    const size_t victim_hash = QueryCacheKeyHash()(victim->key());
    if (candidate <= shard.sketch.Estimate(victim_hash)) return false;
    bytes -= EntryCharge(victim->size);
  }
  return true;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

QueryCache::Stats QueryCache::GetStats() const {
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.evictions = evictions_;
  stats.oversize_rejects = oversize_rejects_;
  stats.admission_rejects = admission_rejects_;
  stats.sketch_bytes = sketch_bytes_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

size_t QueryCache::EncodedBytes(const QueryCacheKey& key,
                                const SearchResult& result) {
  SizeSink size;
  size.Bytes(key.bytes());
  EncodeResult(result, &size);
  return size.size;
}

size_t QueryCache::ApproxEntryBytes(const QueryCacheKey& key,
                                    const SearchResult& result) {
  return EntryCharge(EncodedBytes(key, result));
}

size_t QueryCache::EntryCharge(size_t encoded_bytes) {
  using MapNode = std::pair<const std::string_view, std::list<Entry>::iterator>;
  // List node: two links and the Entry. Map node: a link, the key/value
  // pair and the cached hash. Buckets: the map keeps between one and two
  // per entry, so charge two.
  return HeapBytes(encoded_bytes) +
         HeapBytes(2 * sizeof(void*) + sizeof(Entry)) +
         HeapBytes(sizeof(void*) + sizeof(MapNode) + sizeof(size_t)) +
         2 * sizeof(void*);
}

}  // namespace serve
}  // namespace xksearch
