#include "storage/scan_block.h"

#include <cassert>

#include "common/bitio.h"

namespace xksearch {

namespace {

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (uint16_t{p[1]} << 8));
}

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

// Splits a payload into its entry region and restart count, checking that
// the trailer fits and every restart offset lies inside the entry region
// in increasing order, the first at 0.
Status ParseTrailer(const uint8_t* data, size_t size, size_t* entries_size,
                    size_t* restarts) {
  if (size < 2) return Status::Corruption("scan block shorter than trailer");
  const size_t r = ReadU16(data + size - 2);
  if (r == 0 || 2 * r + 2 > size) {
    return Status::Corruption("bad scan block restart count");
  }
  const size_t entries = size - 2 * r - 2;
  const uint8_t* offsets = data + entries;
  for (size_t i = 0; i < r; ++i) {
    const size_t off = ReadU16(offsets + 2 * i);
    const size_t floor = i == 0 ? 0 : ReadU16(offsets + 2 * (i - 1)) + 1;
    if ((i == 0 && off != 0) || off < floor || off >= entries) {
      return Status::Corruption("bad scan block restart offset");
    }
  }
  *entries_size = entries;
  *restarts = r;
  return Status::OK();
}

size_t VarintBytes(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

size_t ScanBlockBuilder::Shared(DeweyView id) const {
  if (count_ % kScanRestartInterval == 0 || !delta_) return 0;
  return prev_.view().CommonPrefixLength(id);
}

size_t ScanBlockBuilder::AppendCost(DeweyView id) const {
  const size_t shared = Shared(id);
  size_t bytes = VarintBytes(static_cast<uint32_t>(shared)) +
                 VarintBytes(static_cast<uint32_t>(id.depth() - shared));
  for (size_t i = shared; i < id.depth(); ++i) {
    bytes += VarintBytes(id.component(i));
  }
  return count_ % kScanRestartInterval == 0 ? bytes + 2 : bytes;
}

void ScanBlockBuilder::Append(DeweyView id) {
  assert(!id.empty());
  assert(count_ == 0 || prev_.view().Compare(id) <= 0);
  const size_t shared = Shared(id);
  if (count_ % kScanRestartInterval == 0) {
    assert(buf_.size() <= UINT16_MAX);
    restarts_.push_back(static_cast<uint16_t>(buf_.size()));
  }
  PutVarint32(&buf_, static_cast<uint32_t>(shared));
  PutVarint32(&buf_, static_cast<uint32_t>(id.depth() - shared));
  for (size_t i = shared; i < id.depth(); ++i) {
    PutVarint32(&buf_, id.component(i));
  }
  prev_.AssignFrom(id);
  ++count_;
}

void ScanBlockBuilder::FinishTo(std::string* out) {
  for (const uint16_t offset : restarts_) PutU16(&buf_, offset);
  PutU16(&buf_, static_cast<uint16_t>(restarts_.size()));
  out->append(buf_.begin(), buf_.end());
  buf_.clear();
  restarts_.clear();
  count_ = 0;
}

Status ScanBlockReader::Reset(const uint8_t* data, size_t size) {
  data_ = data;
  group_valid_ = false;
  first_.Clear();
  XKS_RETURN_NOT_OK(ParseTrailer(data, size, &entries_size_, &restarts_));
  size_t pos = 0;
  XKS_RETURN_NOT_OK(
      DecodeBlock(data_, GroupEnd(0), &pos, 1, nullptr, 0, &first_));
  if (first_.empty()) return Status::Corruption("empty scan block");
  return Status::OK();
}

size_t ScanBlockReader::RestartOffset(size_t r) const {
  return ReadU16(data_ + entries_size_ + 2 * r);
}

size_t ScanBlockReader::GroupEnd(size_t r) const {
  return r + 1 < restarts_ ? RestartOffset(r + 1) : entries_size_;
}

Result<int> ScanBlockReader::CompareHead(size_t r, DeweyView v) const {
  const size_t end = GroupEnd(r);
  size_t pos = RestartOffset(r);
  uint32_t shared = 0, added = 0;
  if (!GetVarint32(data_, end, &pos, &shared) ||
      !GetVarint32(data_, end, &pos, &added) || shared != 0 || added == 0) {
    return Status::Corruption("bad scan block restart head");
  }
  for (size_t i = 0; i < added; ++i) {
    uint32_t c = 0;
    if (!GetVarint32(data_, end, &pos, &c)) {
      return Status::Corruption("truncated scan block restart head");
    }
    // A head longer than v that agrees on all of v follows it.
    if (i == v.depth()) return 1;
    if (c != v.component(i)) return c < v.component(i) ? -1 : 1;
  }
  return added == v.depth() ? 0 : -1;
}

Result<size_t> ScanBlockReader::FloorGroup(DeweyView v) const {
  // Binary search for the first head > v; the group before it hosts v.
  size_t lo = 0, hi = restarts_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    XKS_ASSIGN_OR_RETURN(const int cmp, CompareHead(mid, v));
    if (cmp <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? restarts_ : lo - 1;
}

Status ScanBlockReader::LoadGroup(size_t g) {
  if (group_valid_ && group_index_ == g) return Status::OK();
  group_valid_ = false;
  group_.Clear();
  size_t pos = RestartOffset(g);
  const size_t end = GroupEnd(g);
  XKS_RETURN_NOT_OK(
      DecodeBlock(data_, end, &pos, ~size_t{0}, nullptr, 0, &group_));
  if (pos != end || group_.empty()) {
    return Status::Corruption("scan block restart group overruns");
  }
  group_index_ = g;
  group_valid_ = true;
  return Status::OK();
}

Result<bool> ScanBlockReader::Floor(DeweyView v, DeweyView* out) {
  XKS_ASSIGN_OR_RETURN(const size_t g, FloorGroup(v));
  if (g == restarts_) return false;
  XKS_RETURN_NOT_OK(LoadGroup(g));
  // Last entry <= v; the group's head is <= v, so one exists.
  size_t lo = 1, hi = group_.count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (group_.entry(mid).Compare(v) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *out = group_.entry(lo - 1);
  return true;
}

Result<bool> ScanBlockReader::Ceil(DeweyView v, DeweyView* out) {
  XKS_ASSIGN_OR_RETURN(const size_t g, FloorGroup(v));
  if (g == restarts_) {
    *out = first();
    return true;
  }
  XKS_RETURN_NOT_OK(LoadGroup(g));
  // First entry >= v in the group, else the next group's head.
  size_t lo = 0, hi = group_.count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (group_.entry(mid).Compare(v) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < group_.count()) {
    *out = group_.entry(lo);
    return true;
  }
  if (g + 1 == restarts_) return false;
  next_head_.Clear();
  size_t pos = RestartOffset(g + 1);
  XKS_RETURN_NOT_OK(
      DecodeBlock(data_, GroupEnd(g + 1), &pos, 1, nullptr, 0, &next_head_));
  if (next_head_.empty()) {
    return Status::Corruption("truncated scan block restart head");
  }
  *out = next_head_.entry(0);
  return true;
}

Status ScanBlockReader::DecodeAll(const uint8_t* data, size_t size,
                                  DecodedBlock* out) {
  size_t entries = 0, restarts = 0;
  XKS_RETURN_NOT_OK(ParseTrailer(data, size, &entries, &restarts));
  size_t pos = 0;
  XKS_RETURN_NOT_OK(
      DecodeBlock(data, entries, &pos, ~size_t{0}, nullptr, 0, out));
  return Status::OK();
}

}  // namespace xksearch
