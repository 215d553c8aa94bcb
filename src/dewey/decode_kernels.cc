#include "dewey/decode_kernels.h"

#include <algorithm>

#include "common/bitio.h"

namespace xksearch {

namespace {

/// A shared-prefix run longer than this is treated as corruption (real
/// Dewey depths are tiny; a multi-megabyte `added` from a flipped bit
/// must not drive a giant allocation before the truncation check fires).
constexpr uint32_t kMaxComponentsPerEntry = 1u << 16;

}  // namespace

DecodeKernel ActiveDecodeKernel() { return DecodeKernel::kScalar; }

const char* DecodeKernelName(DecodeKernel kernel) {
  (void)kernel;
  return "scalar";
}

Status DecodeBlock(const uint8_t* data, size_t size, size_t* pos,
                   size_t max_entries, const uint32_t* carry, size_t carry_len,
                   DecodedBlock* out) {
  std::vector<uint32_t>& comps = out->components;
  std::vector<uint32_t>& offsets = out->offsets;
  if (offsets.empty()) offsets.push_back(0);

  // Previous entry for prefix expansion: `carry` for the first decoded
  // entry, then the entry just appended to `comps` (tracked by index so
  // reallocation is harmless).
  bool prev_in_out = false;
  size_t prev_off = 0;
  size_t prev_len = carry_len;

  for (size_t produced = 0; produced < max_entries && *pos < size;
       ++produced) {
    const size_t entry_pos = *pos;
    const size_t entry_base = comps.size();
    uint32_t shared = 0;
    uint32_t added = 0;
    if (!GetVarint32(data, size, pos, &shared) ||
        !GetVarint32(data, size, pos, &added)) {
      *pos = entry_pos;
      return Status::Corruption("truncated delta block header");
    }
    if (shared > prev_len) {
      *pos = entry_pos;
      return Status::Corruption("delta block shared prefix exceeds previous");
    }
    if (shared + added == 0) {
      *pos = entry_pos;
      return Status::Corruption("empty Dewey id in delta block");
    }
    if (added > kMaxComponentsPerEntry) {
      *pos = entry_pos;
      return Status::Corruption("delta block component count exceeds bound");
    }

    comps.resize(entry_base + shared + added);
    const uint32_t* prev = prev_in_out ? comps.data() + prev_off : carry;
    uint32_t* dst = comps.data() + entry_base;
    for (size_t i = 0; i < shared; ++i) dst[i] = prev[i];
    dst += shared;

    size_t got = 0;
    while (got < added) {
      // Nearly every component is a single-byte varint: copy the run of
      // them inline, then hand one multi-byte component to the checked
      // decoder.
      const uint8_t* run = data + *pos;
      uint32_t* out_run = dst + got;
      const size_t lim = std::min<size_t>(added - got, size - *pos);
      size_t i = 0;
      while (i < lim && run[i] < 0x80) {
        out_run[i] = run[i];
        ++i;
      }
      *pos += i;
      got += i;
      if (got == added) break;
      if (!GetVarint32(data, size, pos, &dst[got])) {
        comps.resize(entry_base);
        *pos = entry_pos;
        return Status::Corruption("truncated delta block component");
      }
      ++got;
    }

    offsets.push_back(static_cast<uint32_t>(comps.size()));
    prev_in_out = true;
    prev_off = entry_base;
    prev_len = shared + added;
  }
  return Status::OK();
}

}  // namespace xksearch
