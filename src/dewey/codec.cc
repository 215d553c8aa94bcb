#include "dewey/codec.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/bitio.h"

namespace xksearch {

namespace {

// Width in bits of the value `v` (0 -> 0 bits).
int BitWidth(uint32_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

}  // namespace

void LevelTable::Observe(const DeweyId& id) {
  if (id.depth() > bits_.size()) bits_.resize(id.depth(), 0);
  for (size_t l = 0; l < id.depth(); ++l) {
    // One spare bit beyond the observed maximum: the all-ones value of the
    // resulting width is then strictly greater than every stored
    // component, so the codec can saturate out-of-range probe components
    // (e.g. Section 5's "uncle" ids) without breaking key order.
    const int w = std::min(BitWidth(id.component(l)) + 1, 32);
    if (w > bits_[l]) bits_[l] = static_cast<uint8_t>(w);
  }
}

size_t LevelTable::TotalBits() const {
  size_t total = 0;
  for (uint8_t b : bits_) total += b;
  return total;
}

void LevelTable::EncodeTo(std::vector<uint8_t>* out) const {
  PutVarint32(out, static_cast<uint32_t>(bits_.size()));
  out->insert(out->end(), bits_.begin(), bits_.end());
}

Result<LevelTable> LevelTable::DecodeFrom(const uint8_t* data, size_t size,
                                          size_t* pos) {
  uint32_t n = 0;
  if (!GetVarint32(data, size, pos, &n)) {
    return Status::Corruption("truncated level table header");
  }
  if (*pos + n > size) {
    return Status::Corruption("truncated level table body");
  }
  std::vector<uint8_t> bits(data + *pos, data + *pos + n);
  for (uint8_t b : bits) {
    if (b > 32) return Status::Corruption("level table width > 32");
  }
  *pos += n;
  return LevelTable(std::move(bits));
}

std::string LevelTable::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < bits_.size(); ++i) {
    if (i > 0) os << ",";
    os << static_cast<int>(bits_[i]);
  }
  os << "]";
  return os.str();
}

void DeweyCodec::EncodeTo(DeweyView id, std::string* out) const {
  assert(!id.empty() && "cannot encode the empty super-root id");
  BitWriter writer(out);
  for (size_t l = 0; l < id.depth(); ++l) {
    const int width = table_.BitsAt(l);
    // Saturate components that exceed the level width. Stored document
    // ids always fit (the table observed them); only probe ids built by
    // the query engine (uncles, arbitrary rm targets) can overflow, and
    // the all-ones value sorts strictly after every stored component, so
    // lower/upper-bound probes stay correct.
    const uint32_t cap =
        width >= 32 ? 0xffffffffu : (uint32_t{1} << width) - 1;
    writer.WriteBits(std::min(id.component(l), cap), width);
    writer.WriteBits(l + 1 < id.depth() ? 1 : 0, 1);
  }
  writer.AlignToByte();
}

bool DeweyCodec::CanEncode(const DeweyId& id) const {
  if (id.empty()) return false;
  for (size_t l = 0; l < id.depth(); ++l) {
    const int width = table_.BitsAt(l);
    if (width >= 32) continue;
    if (id.component(l) >= (uint32_t{1} << width)) return false;
  }
  return true;
}

Status DeweyCodec::DecodeInto(std::string_view bytes, DeweyId* out) const {
  BitReader reader(bytes);
  out->Truncate(0);
  for (size_t l = 0;; ++l) {
    const int width = table_.BitsAt(l);
    if (reader.Remaining() < static_cast<size_t>(width) + 1) {
      return Status::Corruption("truncated compressed Dewey number");
    }
    out->Append(reader.ReadBits(width));
    if (reader.ReadBits(1) == 0) break;
  }
  return Status::OK();
}

void DeltaBlockEncoder::Append(DeweyView id) {
  assert(!id.empty());
  assert(count_ == 0 || prev_.view().Compare(id) <= 0);
  const size_t shared =
      (count_ == 0 || !delta_) ? 0 : prev_.view().CommonPrefixLength(id);
  PutVarint32(&buf_, static_cast<uint32_t>(shared));
  PutVarint32(&buf_, static_cast<uint32_t>(id.depth() - shared));
  for (size_t i = shared; i < id.depth(); ++i) {
    PutVarint32(&buf_, id.component(i));
  }
  prev_.AssignFrom(id);
  ++count_;
}

std::vector<uint8_t> DeltaBlockEncoder::Finish() {
  prev_ = DeweyId();
  count_ = 0;
  return std::move(buf_);
}

bool DeltaBlockDecoder::Next(DeweyId* id) {
  if (pos_ >= size_) return false;
  uint32_t shared = 0;
  uint32_t added = 0;
  if (!GetVarint32(data_, size_, &pos_, &shared) ||
      !GetVarint32(data_, size_, &pos_, &added)) {
    status_ = Status::Corruption("truncated delta block header");
    return false;
  }
  if (first_ && shared != 0) {
    status_ = Status::Corruption("first id of delta block has shared prefix");
    return false;
  }
  if (shared > prev_.size()) {
    status_ = Status::Corruption("delta block shared prefix exceeds previous");
    return false;
  }
  prev_.resize(shared);
  for (uint32_t i = 0; i < added; ++i) {
    uint32_t c = 0;
    if (!GetVarint32(data_, size_, &pos_, &c)) {
      status_ = Status::Corruption("truncated delta block component");
      return false;
    }
    prev_.push_back(c);
  }
  if (prev_.empty()) {
    status_ = Status::Corruption("empty Dewey id in delta block");
    return false;
  }
  first_ = false;
  *id = DeweyId(prev_);
  return true;
}

}  // namespace xksearch
