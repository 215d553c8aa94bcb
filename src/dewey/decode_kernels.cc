#include "dewey/decode_kernels.h"

#include <algorithm>

#include "common/bitio.h"

namespace xksearch {

DecodeKernel ActiveDecodeKernel() { return DecodeKernel::kScalar; }

const char* DecodeKernelName(DecodeKernel kernel) {
  (void)kernel;
  return "scalar";
}

Status DecodeBlock(const uint8_t* data, size_t size, size_t* pos,
                   size_t max_entries, const uint32_t* carry, size_t carry_len,
                   DecodedBlock* out) {
  DecodedBlock::Arena& comps = out->components;
  std::vector<uint32_t>& offsets = out->offsets;
  if (offsets.empty()) offsets.push_back(0);

  // The arena is grown ahead of the decode — into its retained capacity
  // first, then geometrically — and written through `base`; `end` is the
  // logical end, and every return trims the vector back to it.
  size_t end = comps.size();
  uint32_t* base = comps.data();
  auto corrupt = [&](size_t entry_pos, const char* what) {
    comps.resize(end);
    *pos = entry_pos;
    return Status::Corruption(what);
  };

  // Previous entry for prefix expansion: `carry` for the first decoded
  // entry, then the entry just decoded into the arena (tracked by offset
  // so reallocation is harmless).
  bool prev_in_out = false;
  size_t prev_off = 0;
  size_t prev_len = carry_len;

  for (size_t produced = 0; produced < max_entries && *pos < size;
       ++produced) {
    const size_t entry_pos = *pos;
    uint32_t shared = 0;
    uint32_t added = 0;
    if (!GetVarint32(data, size, pos, &shared) ||
        !GetVarint32(data, size, pos, &added)) {
      return corrupt(entry_pos, "truncated delta block header");
    }
    if (shared > prev_len) {
      return corrupt(entry_pos, "delta block shared prefix exceeds previous");
    }
    if (shared + added == 0) {
      return corrupt(entry_pos, "empty Dewey id in delta block");
    }
    if (added > kMaxComponentsPerEntry) {
      return corrupt(entry_pos, "delta block component count exceeds bound");
    }

    const size_t entry_end = end + shared + added;
    if (entry_end > comps.size()) {
      comps.resize(std::max({entry_end, comps.capacity(), 2 * comps.size()}));
      base = comps.data();
    }
    const uint32_t* prev = prev_in_out ? base + prev_off : carry;
    uint32_t* dst = base + end;
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
        return corrupt(entry_pos, "truncated delta block component");
      }
      ++got;
    }

    offsets.push_back(static_cast<uint32_t>(entry_end));
    prev_in_out = true;
    prev_off = end;
    prev_len = shared + added;
    end = entry_end;
  }
  comps.resize(end);
  return Status::OK();
}

}  // namespace xksearch
