#ifndef XKSEARCH_COMMON_BITIO_H_
#define XKSEARCH_COMMON_BITIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xksearch {

/// \brief Appends bit fields of arbitrary width (0..32) to a caller-owned
/// byte string, most-significant bit first within each field.
///
/// Used by the Dewey level-table codec (paper Section 4): each component of
/// a Dewey number is stored with exactly `levelTable[level]` bits. Fields
/// collect in a 64-bit accumulator and leave it a whole byte at a time, so
/// writing into a reused string allocates nothing once it has capacity.
class BitWriter {
 public:
  /// Appends to `out`, which must outlive the writer.
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Appends the low `width` bits of `value`. `width` must be in [0, 32];
  /// width 0 writes nothing (a level whose nodes have at most one child
  /// needs 0 bits only when the component is always 0).
  void WriteBits(uint32_t value, int width);

  /// Pads the current byte with zero bits and appends it, so the next
  /// write is byte-aligned. Bits of a partial byte reach `out` only here:
  /// call it after the last field.
  void AlignToByte();

  /// Number of bits written so far (padding included).
  size_t bit_count() const { return bit_count_; }

 private:
  std::string* out_;
  uint64_t pending_ = 0;   // the low pending_bits_ bits are not yet in out_
  int pending_bits_ = 0;   // always < 8 between calls
  size_t bit_count_ = 0;
};

/// \brief Reads back bit fields written by BitWriter, up to a byte per
/// step.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  explicit BitReader(std::string_view bytes)
      : BitReader(reinterpret_cast<const uint8_t*>(bytes.data()),
                  bytes.size()) {}

  /// Reads `width` bits (0..32). Returns 0 for width 0. It is the caller's
  /// responsibility not to read past the end (checked via Remaining()).
  uint32_t ReadBits(int width);

  /// Skips to the next byte boundary.
  void AlignToByte();

  /// Bits left in the buffer.
  size_t Remaining() const { return size_bits_ - pos_; }

  size_t position_bits() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
};

/// Appends `v` to `out` as a base-128 varint (LSB groups first).
void PutVarint32(std::vector<uint8_t>* out, uint32_t v);
void PutVarint64(std::vector<uint8_t>* out, uint64_t v);

/// Decodes a varint at `*pos` in `data` (size `size`); advances `*pos`.
/// Returns false on truncation/overflow.
bool GetVarint32(const uint8_t* data, size_t size, size_t* pos, uint32_t* v);
bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* v);

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_BITIO_H_
