#ifndef XKSEARCH_STORAGE_SCAN_BLOCK_H_
#define XKSEARCH_STORAGE_SCAN_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dewey/decode_kernels.h"
#include "dewey/dewey_id.h"

namespace xksearch {

/// Entries per restart group of a scan block: every 32nd entry is stored
/// in full, the geometry PackedDeweyList uses in memory.
inline constexpr size_t kScanRestartInterval = 32;

/// \brief Writes one scan-layout block payload.
///
/// Payload layout (index format 3), after LevelDB's table blocks:
///
///     entry* restart_offset[R] R
///
/// Each entry is varint(shared) varint(added) varint(component)*, the
/// DeltaBlockEncoder wire format. Entry k is a *restart* when
/// k % kScanRestartInterval == 0: it is stored in full (shared = 0), so a
/// reader can start decoding there. `restart_offset[r]` is the byte
/// offset of restart r and R the restart count, each a little-endian
/// u16 (a payload fits one 4 KiB page). With `delta` false every entry is
/// stored in full — the uncompressed baseline of ablation X2.
class ScanBlockBuilder {
 public:
  explicit ScanBlockBuilder(bool delta = true) : delta_(delta) {}

  /// Appends `id` (non-empty, >= the previously appended id).
  void Append(DeweyView id);

  size_t count() const { return count_; }
  /// Payload bytes if the block were finished now, trailer included.
  size_t SizeBytes() const { return buf_.size() + 2 * restarts_.size() + 2; }
  /// How much SizeBytes() would grow if `id` were appended next.
  size_t AppendCost(DeweyView id) const;

  /// Appends the payload to `out` and resets the builder.
  void FinishTo(std::string* out);

 private:
  /// Components `id` shares with the previous entry in its encoding.
  size_t Shared(DeweyView id) const;

  bool delta_;
  std::vector<uint8_t> buf_;
  std::vector<uint16_t> restarts_;
  DeweyId prev_;
  size_t count_ = 0;
};

/// \brief Random access into one scan block payload through its restart
/// points: the in-block half of an lm/rm probe.
///
/// Reset parses the trailer and decodes the first entry. Seek answers
/// both halves of a match step at once: it finds the group hosting the
/// target among the restart heads, each compared in place (a head is
/// stored in full), then decodes that group forward from its head, one
/// entry at a time, until it passes the target. Only the entry passed
/// last and the one before it are kept. That cursor stays for the next
/// Seek: a target at or after it continues from there, galloping forward
/// over the following heads first when it may lie in a later group, so
/// nondecreasing targets decode each entry of a group at most once and
/// stop at the target rather than at the group's end. The payload is not
/// copied: it must outlive the reader (or the next Reset). Every buffer
/// keeps its capacity across Reset.
class ScanBlockReader {
 public:
  /// Where a target falls in the block. The views point into the
  /// reader's own buffers and stay valid until the next Seek or Reset.
  struct Bounds {
    /// Greatest entry <= the target; absent when it precedes the block.
    bool has_floor = false;
    DeweyView floor;
    /// Smallest entry >= the target; absent when it follows the block's
    /// last entry.
    bool has_ceil = false;
    DeweyView ceil;
    /// The target is an entry: floor and ceil both view it.
    bool exact = false;
  };

  /// Parses `data[0, size)`; Corruption when the trailer or the first
  /// entry is malformed.
  Status Reset(const uint8_t* data, size_t size);

  size_t restart_count() const { return restarts_; }
  /// The block's first entry.
  DeweyView first() const { return first_.view(); }

  /// Floor and ceiling of `v` within the block, in one search.
  Status Seek(DeweyView v, Bounds* out);

  /// Appends every entry of `data[0, size)`, trailer skipped, to `out`.
  static Status DecodeAll(const uint8_t* data, size_t size,
                          DecodedBlock* out);

 private:
  /// One decoded entry; its buffer only grows.
  struct Entry {
    std::vector<uint32_t> components;
    size_t depth = 0;
    DeweyView view() const { return DeweyView(components.data(), depth); }
  };

  /// Decodes the entry at `data_[*pos, end)` into `out`, taking its shared
  /// prefix from `prev` (which must not be `out`).
  Status DecodeEntry(size_t end, size_t* pos, DeweyView prev,
                     Entry* out) const;
  /// Three-way comparison of restart r's head with v, read in place.
  Result<int> CompareHead(size_t r, DeweyView v) const;
  /// First restart in [lo, hi) whose head is > v; hi when there is none.
  Result<size_t> FirstHeadAfter(DeweyView v, size_t lo, size_t hi) const;
  /// Index of the last head <= v, given that head `known` is <= v.
  Result<size_t> GallopGroup(DeweyView v, size_t known) const;
  /// Puts the cursor on group g's head.
  Status StartGroup(size_t g);
  /// Moves the cursor to the next entry of its group; false at its end.
  Result<bool> Advance();
  size_t RestartOffset(size_t r) const;
  /// End of restart r's group in the entry region.
  size_t GroupEnd(size_t r) const;

  Entry& cur() { return entries_[cur_]; }
  Entry& prev() { return entries_[cur_ ^ 1]; }

  const uint8_t* data_ = nullptr;
  size_t entries_size_ = 0;
  size_t restarts_ = 0;
  Entry first_;
  /// The cursor: group group_, entry cur() (and the one before it, prev(),
  /// when has_prev_), and the offset of the entry after it, up to end_.
  Entry entries_[2];
  size_t cur_ = 0;
  bool has_prev_ = false;
  bool cursor_valid_ = false;
  size_t group_ = 0;
  size_t pos_ = 0;
  size_t end_ = 0;
  /// The head after the cursor's group, when a ceiling crosses into it.
  Entry next_head_;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_SCAN_BLOCK_H_
