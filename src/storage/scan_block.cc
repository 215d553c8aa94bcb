#include "storage/scan_block.h"

#include <algorithm>
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

// GetVarint32 with the one-byte case inline: nearly every shared count,
// added count and component of a posting fits one byte.
bool ReadVarint(const uint8_t* data, size_t end, size_t* pos, uint32_t* v) {
  if (*pos < end && data[*pos] < 0x80) {
    *v = data[(*pos)++];
    return true;
  }
  return GetVarint32(data, end, pos, v);
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
  cursor_valid_ = false;
  first_.depth = 0;
  XKS_RETURN_NOT_OK(ParseTrailer(data, size, &entries_size_, &restarts_));
  size_t pos = 0;
  return DecodeEntry(GroupEnd(0), &pos, DeweyView(), &first_);
}

size_t ScanBlockReader::RestartOffset(size_t r) const {
  return ReadU16(data_ + entries_size_ + 2 * r);
}

size_t ScanBlockReader::GroupEnd(size_t r) const {
  return r + 1 < restarts_ ? RestartOffset(r + 1) : entries_size_;
}

Status ScanBlockReader::DecodeEntry(size_t end, size_t* pos, DeweyView prev,
                                    Entry* out) const {
  uint32_t shared = 0, added = 0;
  if (!ReadVarint(data_, end, pos, &shared) ||
      !ReadVarint(data_, end, pos, &added)) {
    return Status::Corruption("truncated scan block entry");
  }
  if (shared > prev.depth() || shared + added == 0 ||
      added > kMaxComponentsPerEntry) {
    return Status::Corruption("bad scan block entry header");
  }
  const size_t depth = shared + added;
  if (out->components.size() < depth) out->components.resize(depth);
  uint32_t* dst = out->components.data();
  std::copy_n(prev.data(), shared, dst);
  for (size_t i = shared; i < depth; ++i) {
    if (!ReadVarint(data_, end, pos, &dst[i])) {
      return Status::Corruption("truncated scan block entry");
    }
  }
  out->depth = depth;
  return Status::OK();
}

Result<int> ScanBlockReader::CompareHead(size_t r, DeweyView v) const {
  const size_t end = GroupEnd(r);
  size_t pos = RestartOffset(r);
  uint32_t shared = 0, added = 0;
  if (!ReadVarint(data_, end, &pos, &shared) ||
      !ReadVarint(data_, end, &pos, &added) || shared != 0 || added == 0) {
    return Status::Corruption("bad scan block restart head");
  }
  for (size_t i = 0; i < added; ++i) {
    uint32_t c = 0;
    if (!ReadVarint(data_, end, &pos, &c)) {
      return Status::Corruption("truncated scan block restart head");
    }
    // A head longer than v that agrees on all of v follows it.
    if (i == v.depth()) return 1;
    if (c != v.component(i)) return c < v.component(i) ? -1 : 1;
  }
  return added == v.depth() ? 0 : -1;
}

Result<size_t> ScanBlockReader::FirstHeadAfter(DeweyView v, size_t lo,
                                               size_t hi) const {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    XKS_ASSIGN_OR_RETURN(const int cmp, CompareHead(mid, v));
    if (cmp <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<size_t> ScanBlockReader::GallopGroup(DeweyView v, size_t known) const {
  // Compare the heads 1, 2, 4, ... past the last one known to be <= v,
  // then binary-search the last stride. Nondecreasing targets mostly
  // stay in the group or move to the next one.
  size_t hi = restarts_;
  for (size_t step = 1; known + step < restarts_; step *= 2) {
    XKS_ASSIGN_OR_RETURN(const int cmp, CompareHead(known + step, v));
    if (cmp > 0) {
      hi = known + step;
      break;
    }
    known += step;
  }
  XKS_ASSIGN_OR_RETURN(const size_t after, FirstHeadAfter(v, known + 1, hi));
  return after - 1;
}

Status ScanBlockReader::StartGroup(size_t g) {
  cursor_valid_ = false;
  group_ = g;
  pos_ = RestartOffset(g);
  end_ = GroupEnd(g);
  cur_ = 0;
  has_prev_ = false;
  XKS_RETURN_NOT_OK(DecodeEntry(end_, &pos_, DeweyView(), &cur()));
  cursor_valid_ = true;
  return Status::OK();
}

Result<bool> ScanBlockReader::Advance() {
  if (pos_ >= end_) return false;
  // Decode into the other buffer, which then becomes the cursor.
  const Status status = DecodeEntry(end_, &pos_, cur().view(), &prev());
  if (!status.ok()) {
    cursor_valid_ = false;
    return status;
  }
  cur_ ^= 1;
  has_prev_ = true;
  return true;
}

Status ScanBlockReader::Seek(DeweyView v, Bounds* out) {
  *out = Bounds();
  // Pick the group hosting v (the last whose head is <= v) and whether
  // the cursor can continue from where it stands.
  int c = 1;          // the cursor's entry against v
  int prev_cmp = -1;  // the entry before it against v
  bool resume = false;
  size_t g = restarts_;  // restarts_ until the group is known
  size_t search_end = restarts_;
  if (cursor_valid_) {
    c = cur().view().Compare(v);
    if (has_prev_ && c > 0) prev_cmp = prev().view().Compare(v);
    if (c <= 0) {
      XKS_ASSIGN_OR_RETURN(g, GallopGroup(v, group_));
      resume = g == group_;
    } else if (has_prev_ && prev_cmp <= 0) {
      g = group_;
      resume = true;
    } else {
      search_end = group_ + 1;  // v is below the cursor
    }
  }
  if (g == restarts_) {
    XKS_ASSIGN_OR_RETURN(const size_t after, FirstHeadAfter(v, 0, search_end));
    if (after == 0) {
      out->has_ceil = true;
      out->ceil = first();
      return Status::OK();
    }
    g = after - 1;
  }
  if (!resume) {
    XKS_RETURN_NOT_OK(StartGroup(g));
    c = cur().view().Compare(v);
  }
  // Step forward to the first entry >= v, or to the group's last entry.
  while (c < 0) {
    XKS_ASSIGN_OR_RETURN(const bool more, Advance());
    if (!more) break;
    prev_cmp = c;
    c = cur().view().Compare(v);
  }
  if (c == 0) {
    out->exact = out->has_floor = out->has_ceil = true;
    out->floor = out->ceil = cur().view();
    return Status::OK();
  }
  if (c > 0) {
    // The group's head is <= v, so the cursor moved past an entry.
    if (!has_prev_) return Status::Corruption("scan block head mismatch");
    out->has_floor = out->has_ceil = true;
    out->floor = prev().view();
    out->exact = prev_cmp == 0;
    out->ceil = out->exact ? out->floor : cur().view();
    return Status::OK();
  }
  // Past the group's last entry: the ceiling is the next head, if any.
  out->has_floor = true;
  out->floor = cur().view();
  if (g + 1 == restarts_) return Status::OK();
  size_t pos = RestartOffset(g + 1);
  XKS_RETURN_NOT_OK(
      DecodeEntry(GroupEnd(g + 1), &pos, DeweyView(), &next_head_));
  out->has_ceil = true;
  out->ceil = next_head_.view();
  return Status::OK();
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
