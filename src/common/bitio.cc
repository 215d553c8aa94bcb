#include "common/bitio.h"

#include <cassert>

namespace xksearch {

void BitWriter::WriteBits(uint32_t value, int width) {
  assert(width >= 0 && width <= 32);
  if (width == 0) return;
  if (width < 32) {
    assert((value >> width) == 0 && "value does not fit in width");
  }
  // At most 7 + 32 bits are pending here, well inside the accumulator.
  pending_ = (pending_ << width) | value;
  pending_bits_ += width;
  bit_count_ += static_cast<size_t>(width);
  while (pending_bits_ >= 8) {
    pending_bits_ -= 8;
    out_->push_back(static_cast<char>(pending_ >> pending_bits_));
  }
  pending_ &= (uint64_t{1} << pending_bits_) - 1;
}

void BitWriter::AlignToByte() {
  if (pending_bits_ == 0) return;
  out_->push_back(static_cast<char>(pending_ << (8 - pending_bits_)));
  bit_count_ += static_cast<size_t>(8 - pending_bits_);
  pending_ = 0;
  pending_bits_ = 0;
}

uint32_t BitReader::ReadBits(int width) {
  assert(width >= 0 && width <= 32);
  assert(static_cast<size_t>(width) <= Remaining() && "BitReader overrun");
  uint64_t out = 0;
  while (width > 0) {
    // Take the rest of the current byte, or just the bits still needed.
    const int free_bits = 8 - static_cast<int>(pos_ % 8);
    const int take = width < free_bits ? width : free_bits;
    const uint32_t byte = data_[pos_ / 8];
    out = (out << take) | ((byte >> (free_bits - take)) & ((1u << take) - 1));
    pos_ += static_cast<size_t>(take);
    width -= take;
  }
  return static_cast<uint32_t>(out);
}

void BitReader::AlignToByte() { pos_ = (pos_ + 7) / 8 * 8; }

void PutVarint32(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutVarint64(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint32(const uint8_t* data, size_t size, size_t* pos, uint32_t* v) {
  uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject bits beyond 32 in the final group.
      if (shift == 28 && (byte & 0x70) != 0) return false;
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetVarint64(const uint8_t* data, size_t size, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

}  // namespace xksearch
