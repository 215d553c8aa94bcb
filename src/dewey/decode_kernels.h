#ifndef XKSEARCH_DEWEY_DECODE_KERNELS_H_
#define XKSEARCH_DEWEY_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dewey/dewey_id.h"

namespace xksearch {

/// \brief A batch of decoded Dewey ids in one flat arena.
///
/// `components` holds every entry's components back to back;
/// `offsets` brackets entry i as [offsets[i], offsets[i + 1]) (so it has
/// count() + 1 elements once non-empty). Both vectors keep their capacity
/// across Clear(), so a block cursor that reuses one DecodedBlock performs
/// zero per-entry heap allocation in steady state.
struct DecodedBlock {
  std::vector<uint32_t> components;
  std::vector<uint32_t> offsets;

  size_t count() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  bool empty() const { return count() == 0; }

  DeweyView entry(size_t i) const {
    return DeweyView(components.data() + offsets[i],
                     offsets[i + 1] - offsets[i]);
  }
  /// The last entry's components (the carry for decoding a continuation
  /// of the same delta stream).
  const uint32_t* last_data() const {
    return components.data() + offsets[offsets.size() - 2];
  }
  size_t last_len() const {
    return offsets[offsets.size() - 1] - offsets[offsets.size() - 2];
  }

  void Append(DeweyView v) {
    if (offsets.empty()) offsets.push_back(0);
    components.insert(components.end(), v.data(), v.data() + v.depth());
    offsets.push_back(static_cast<uint32_t>(components.size()));
  }

  void Clear() {
    components.clear();
    offsets.clear();
  }

  size_t memory_bytes() const {
    return components.capacity() * sizeof(uint32_t) +
           offsets.capacity() * sizeof(uint32_t);
  }
};

/// Compatibility shim for the benchmark's environment record, which
/// prints `DecodeKernelName(ActiveDecodeKernel())`. Posting decode has
/// one scalar implementation, so the only kernel is kScalar and the name
/// is always "scalar". Delete together with that caller.
enum class DecodeKernel : uint8_t { kScalar = 0 };

/// Always DecodeKernel::kScalar (see the DecodeKernel shim above).
DecodeKernel ActiveDecodeKernel();

/// "scalar" (see the DecodeKernel shim above).
const char* DecodeKernelName(DecodeKernel kernel);

/// \brief Decodes up to `max_entries` delta-encoded entries from
/// `data[*pos..size)` and appends them to `out`.
///
/// The wire format per entry is varint(shared) varint(added)
/// varint(component)*. The first decoded entry's shared prefix is taken
/// from `carry` (`carry_len` components — the entry preceding `*pos` in
/// the same stream, or empty at a block start); later entries chain off
/// the previous decoded entry inside `out`. `carry` must not alias
/// `out->components`.
///
/// Stops early at end of input (no error: a short block is the caller's
/// concern). On corruption returns the same Status messages as
/// DeltaBlockDecoder and never reads past `size`; `*pos` and `out` are
/// left at the last fully-decoded entry.
Status DecodeBlock(const uint8_t* data, size_t size, size_t* pos,
                   size_t max_entries, const uint32_t* carry, size_t carry_len,
                   DecodedBlock* out);

}  // namespace xksearch

#endif  // XKSEARCH_DEWEY_DECODE_KERNELS_H_
