// Batch decode sweep (Ablation X13): throughput of the block-at-a-time
// posting decoder against the legacy entry-at-a-time DeltaBlockDecoder,
// over the identical delta-encoded wire bytes.
//
// One delta stream of N sorted Dewey ids is decoded end to end: the
// `legacy` row is DeltaBlockDecoder::Next per entry; the `batch` row is
// DecodeBlock in 256-entry batches with the carry chained across calls
// (exactly the blocked cursors' access pattern). MB/s is wire bytes
// consumed per second.
//
// Standalone binary (like bench_parallel_query), not a google-benchmark
// harness. Prints a table plus one JSON line per configuration for
// tools/bench_to_csv.py.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dewey/codec.h"
#include "dewey/decode_kernels.h"

namespace xksearch {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  std::vector<size_t> entries = {10'000, 100'000};
  size_t duration_ms = 300;
};

std::vector<DeweyId> RandomSortedIds(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<DeweyId> ids;
  ids.reserve(n + n / 4);
  while (ids.size() < n + n / 4) {
    std::vector<uint32_t> components;
    components.push_back(0);
    const size_t depth = 2 + static_cast<size_t>(rng.UniformInt(0, 8));
    for (size_t d = 1; d < depth; ++d) {
      // Mostly single-byte varints with a multi-byte tail mixed in —
      // the shape real document trees produce.
      const bool wide = rng.UniformInt(0, 9) == 0;
      components.push_back(static_cast<uint32_t>(
          rng.UniformInt(0, wide ? 100'000 : 120)));
    }
    ids.emplace_back(std::move(components));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() > n) ids.resize(n);
  return ids;
}

std::vector<uint8_t> EncodeStream(const std::vector<DeweyId>& ids) {
  DeltaBlockEncoder encoder;
  for (const DeweyId& id : ids) encoder.Append(id);
  return encoder.Finish();
}

struct DecodeResult {
  double mb_per_s = 0;
  double mentries_per_s = 0;
  uint64_t passes = 0;
  uint64_t checksum = 0;  // defeats dead-code elimination
};

/// Repeats `decode_pass` (one full decode of the stream, returning a
/// checksum) until the time budget elapses.
template <typename Pass>
DecodeResult Measure(const Config& config, size_t bytes, size_t entries,
                     Pass decode_pass) {
  DecodeResult out;
  out.checksum = decode_pass();  // warmup
  const Clock::time_point start = Clock::now();
  const Clock::duration budget = std::chrono::milliseconds(config.duration_ms);
  Clock::time_point now;
  do {
    out.checksum ^= decode_pass();
    ++out.passes;
    now = Clock::now();
  } while (now - start < budget);
  const double seconds = std::chrono::duration<double>(now - start).count();
  const double total_bytes =
      static_cast<double>(bytes) * static_cast<double>(out.passes);
  const double total_entries =
      static_cast<double>(entries) * static_cast<double>(out.passes);
  out.mb_per_s = total_bytes / seconds / 1e6;
  out.mentries_per_s = total_entries / seconds / 1e6;
  return out;
}

void RunDecodeSection(const Config& config) {
  std::printf("%8s %8s %10s %12s %12s\n", "entries", "kernel", "wire_kb",
              "MB/s", "Mentries/s");
  for (const size_t n : config.entries) {
    const std::vector<DeweyId> ids = RandomSortedIds(42 + n, n);
    const std::vector<uint8_t> bytes = EncodeStream(ids);

    auto emit = [&](const char* kernel, const DecodeResult& r) {
      std::printf("%8zu %8s %10.1f %12.1f %12.2f\n", ids.size(), kernel,
                  static_cast<double>(bytes.size()) / 1e3, r.mb_per_s,
                  r.mentries_per_s);
      std::printf(
          "{\"bench\":\"decode_kernels\",\"section\":\"decode\","
          "\"entries\":%zu,\"kernel\":\"%s\",\"wire_bytes\":%zu,"
          "\"mb_per_s\":%.2f,\"mentries_per_s\":%.3f,\"passes\":%" PRIu64
          "}\n",
          ids.size(), kernel, bytes.size(), r.mb_per_s, r.mentries_per_s,
          r.passes);
      std::fflush(stdout);
    };

    // Legacy reference: the entry-at-a-time decoder DecodeBlock replaced.
    emit("legacy", Measure(config, bytes.size(), ids.size(), [&] {
           DeltaBlockDecoder decoder(bytes);
           DeweyId id;
           uint64_t sum = 0;
           while (decoder.Next(&id)) sum += id.depth();
           if (!decoder.status().ok()) std::abort();
           return sum;
         }));

    constexpr size_t kBatch = 256;
    DecodedBlock block;
    std::vector<uint32_t> carry;
    emit("batch", Measure(config, bytes.size(), ids.size(), [&] {
           uint64_t sum = 0;
           size_t pos = 0;
           carry.clear();
           while (pos < bytes.size()) {
             block.Clear();
             const Status status = DecodeBlock(
                 bytes.data(), bytes.size(), &pos, kBatch,
                 carry.empty() ? nullptr : carry.data(), carry.size(), &block);
             if (!status.ok() || block.empty()) std::abort();
             for (size_t i = 0; i < block.count(); ++i) {
               sum += block.entry(i).depth();
             }
             carry.assign(block.last_data(),
                          block.last_data() + block.last_len());
           }
           return sum;
         }));
  }
}

std::vector<size_t> ParseList(const char* text) {
  std::vector<size_t> out;
  for (const char* p = text; *p != '\0';) {
    out.push_back(static_cast<size_t>(std::strtoull(p, nullptr, 10)));
    p = std::strchr(p, ',');
    if (p == nullptr) break;
    ++p;
  }
  return out;
}

}  // namespace
}  // namespace xksearch

int main(int argc, char** argv) {
  xksearch::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--entries=")) {
      config.entries = xksearch::ParseList(v);
    } else if (const char* v = value("--duration-ms=")) {
      config.duration_ms = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --entries=l --duration-ms=\n",
                   arg);
      return 2;
    }
  }
  xksearch::RunDecodeSection(config);
  return 0;
}
