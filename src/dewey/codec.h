#ifndef XKSEARCH_DEWEY_CODEC_H_
#define XKSEARCH_DEWEY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dewey/dewey_id.h"

namespace xksearch {

/// \brief Per-level bit widths for Dewey compression (paper Section 4).
///
/// Entry `l` is the number of bits needed to store the `l`-th component of
/// any Dewey number in the document, i.e. ceil(log2(maxChildren(l-1)+...)):
/// the width of the maximum ordinal occurring at level `l`. The root is at
/// level 0 and its component is always 0, so `bits[0]` is usually 0.
class LevelTable {
 public:
  LevelTable() = default;
  explicit LevelTable(std::vector<uint8_t> bits) : bits_(std::move(bits)) {}

  /// Incrementally accounts for one id during index construction.
  void Observe(const DeweyId& id);

  /// Width for level `l`; levels beyond the observed depth get 32 bits so
  /// codecs remain safe on unseen-depth ids.
  int BitsAt(size_t level) const {
    return level < bits_.size() ? bits_[level] : 32;
  }

  size_t depth() const { return bits_.size(); }
  const std::vector<uint8_t>& bits() const { return bits_; }

  /// Total bits for a full-depth Dewey number (sum of widths).
  size_t TotalBits() const;

  /// Serialization for persisting alongside the index.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static Result<LevelTable> DecodeFrom(const uint8_t* data, size_t size,
                                       size_t* pos);

  std::string ToString() const;

 private:
  std::vector<uint8_t> bits_;
};

/// \brief Order-preserving compressed encoding of Dewey numbers.
///
/// Each component is written with its level-table width followed by a
/// 1-bit continuation flag (1 = another component follows). The padding is
/// zero bits, which makes plain lexicographic byte comparison of two
/// encodings agree with Dewey document order — the property the Indexed
/// Lookup B+tree relies on for its (keyword, dewey) composite keys.
class DeweyCodec {
 public:
  explicit DeweyCodec(LevelTable table) : table_(std::move(table)) {}

  /// True iff every component of `id` fits its level width, i.e. the
  /// encoding is lossless and decodes back to `id`. Probe ids may be
  /// lossy (saturated, order-preserving); ids that are *stored* must
  /// pass this check — incremental updates reject ids outside the level
  /// table rather than silently colliding.
  bool CanEncode(const DeweyId& id) const;

  /// Appends the encoding of `id` (must be non-empty; the empty
  /// super-root is never stored) to `out`. Nothing else is allocated, so
  /// a reused key buffer makes encoding allocation-free.
  void EncodeTo(DeweyView id, std::string* out) const;

  /// Decodes `bytes` into `*out`, reusing its component capacity. On
  /// Corruption `*out` holds an unspecified prefix.
  Status DecodeInto(std::string_view bytes, DeweyId* out) const;

  const LevelTable& level_table() const { return table_; }

 private:
  LevelTable table_;
};

/// \brief Delta codec for sorted runs of Dewey ids (posting blocks).
///
/// The first id of a block is stored in full; each subsequent id is stored
/// as (shared-prefix length, number of new components, the new components),
/// all varint. Consecutive ids in document order share long prefixes, so
/// this is compact and decodes strictly forward — exactly what the Scan
/// Eager and Stack algorithms need.
class DeltaBlockEncoder {
 public:
  /// With `delta` false every id is stored in full (shared prefix forced
  /// to zero) — the uncompressed baseline for the compression ablation.
  explicit DeltaBlockEncoder(bool delta = true) : delta_(delta) {}

  /// Appends `id` (must be >= the previously appended id in Dewey order).
  void Append(DeweyView id);
  void Append(const DeweyId& id) { Append(id.view()); }

  size_t count() const { return count_; }
  size_t SizeBytes() const { return buf_.size(); }

  /// Returns the encoded block and resets the encoder.
  std::vector<uint8_t> Finish();

 private:
  bool delta_;
  std::vector<uint8_t> buf_;
  DeweyId prev_;
  size_t count_ = 0;
};

/// \brief Forward-only, entry-at-a-time decoder for DeltaBlockEncoder
/// output.
///
/// No read or write path uses it: every block is decoded by DecodeBlock
/// (decode_kernels.h). It stays as the independent reference
/// decode_kernel_test compares DecodeBlock against.
class DeltaBlockDecoder {
 public:
  DeltaBlockDecoder(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit DeltaBlockDecoder(const std::vector<uint8_t>& data)
      : DeltaBlockDecoder(data.data(), data.size()) {}

  /// Decodes the next id into `*id`. Returns false at end of block;
  /// `status()` distinguishes clean end from corruption.
  bool Next(DeweyId* id);

  const Status& status() const { return status_; }
  bool AtEnd() const { return pos_ >= size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::vector<uint32_t> prev_;
  bool first_ = true;
  Status status_;
};

}  // namespace xksearch

#endif  // XKSEARCH_DEWEY_CODEC_H_
