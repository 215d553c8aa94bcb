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
/// Reset parses the trailer and decodes the first entry. A floor or
/// ceiling search binary-searches the restart heads, comparing each one
/// in place against the target (a head is stored in full, so nothing is
/// decoded into an arena), then decodes one group of at most
/// kScanRestartInterval entries. The last decoded group stays cached, so
/// searches that land in it again decode nothing. The payload is not
/// copied: it must outlive the reader (or the next Reset). Every buffer
/// keeps its capacity across Reset.
class ScanBlockReader {
 public:
  /// Parses `data[0, size)`; Corruption when the trailer or the first
  /// entry is malformed.
  Status Reset(const uint8_t* data, size_t size);

  size_t restart_count() const { return restarts_; }
  /// The block's first entry.
  DeweyView first() const { return first_.entry(0); }

  /// Greatest entry <= v into `*out`; false when v precedes the block.
  /// `*out` views the reader's own arenas (valid until the next call).
  Result<bool> Floor(DeweyView v, DeweyView* out);
  /// Smallest entry >= v into `*out`; false when v follows the block.
  Result<bool> Ceil(DeweyView v, DeweyView* out);

  /// Appends every entry of `data[0, size)`, trailer skipped, to `out`.
  static Status DecodeAll(const uint8_t* data, size_t size,
                          DecodedBlock* out);

 private:
  /// Three-way comparison of restart r's head with v, read in place.
  Result<int> CompareHead(size_t r, DeweyView v) const;
  /// Index of the last head <= v; restart_count() when v < first().
  Result<size_t> FloorGroup(DeweyView v) const;
  /// Decodes group `g` into group_ unless it is already there.
  Status LoadGroup(size_t g);
  size_t RestartOffset(size_t r) const;
  /// End of restart r's group in the entry region.
  size_t GroupEnd(size_t r) const;

  const uint8_t* data_ = nullptr;
  size_t entries_size_ = 0;
  size_t restarts_ = 0;
  DecodedBlock first_;
  DecodedBlock group_;
  /// The head after group_, when a ceiling search crosses into it.
  DecodedBlock next_head_;
  size_t group_index_ = 0;
  bool group_valid_ = false;
};

}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_SCAN_BLOCK_H_
