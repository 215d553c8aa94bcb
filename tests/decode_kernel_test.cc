#include "dewey/decode_kernels.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dewey/codec.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;

/// Reference decode: the entry-at-a-time DeltaBlockDecoder that
/// DecodeBlock must agree with bit for bit.
std::vector<DeweyId> ReferenceDecode(const std::vector<uint8_t>& bytes) {
  DeltaBlockDecoder decoder(bytes);
  std::vector<DeweyId> out;
  DeweyId id;
  while (decoder.Next(&id)) out.push_back(id);
  EXPECT_TRUE(decoder.status().ok()) << decoder.status().ToString();
  return out;
}

std::vector<uint8_t> Encode(const std::vector<DeweyId>& ids,
                            bool delta = true) {
  DeltaBlockEncoder encoder(delta);
  for (const DeweyId& id : ids) encoder.Append(id);
  return encoder.Finish();
}

void ExpectBlockEquals(const DecodedBlock& got,
                       const std::vector<DeweyId>& expected,
                       const std::string& context) {
  ASSERT_EQ(got.count(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(DeweyId::FromView(got.entry(i)), expected[i])
        << context << " entry " << i;
  }
}

/// A mix of shapes: deep chains, shared-prefix runs, multi-byte
/// components, sibling fan-out, and one entry that adds 40 single-byte
/// components and then a multi-byte one — sorted, as every posting list
/// is.
std::vector<DeweyId> MixedIds() {
  std::vector<uint32_t> long_run = {0, 2};
  long_run.insert(long_run.end(), 40, 1);
  long_run.push_back(1000);
  std::vector<DeweyId> ids = Ids({
      "0",
      "0.0.0.0.0.0.0.0",
      "0.0.0.0.0.0.0.1",
      "0.0.1",
      "0.1",
      "0.1.0.2.3.4",
      "0.1.0.2.3.5",
      "0.1.127",
      "0.1.128",          // first two-byte varint component
      "0.1.128.1000000",  // multi-byte tail after a shared prefix
      "0.2",
  });
  ids.emplace_back(std::move(long_run));
  ids.push_back(Id("0.300.300.300"));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  return ids;
}

std::vector<DeweyId> RandomSortedIds(uint64_t seed, size_t n,
                                     uint32_t max_component,
                                     size_t max_depth) {
  Rng rng(seed);
  std::vector<DeweyId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t depth =
        1 + static_cast<size_t>(rng.UniformInt(0, static_cast<int>(max_depth - 1)));
    std::vector<uint32_t> components;
    components.push_back(0);  // all documents root at 0
    for (size_t d = 1; d < depth; ++d) {
      components.push_back(static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int>(std::min<uint32_t>(
                                max_component, 1u << 30)))));
    }
    ids.emplace_back(std::move(components));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(DecodeKernelTest, EveryKernelMatchesReferenceOnMixedShapes) {
  const std::vector<DeweyId> ids = MixedIds();
  for (bool delta : {true, false}) {
    const std::vector<uint8_t> bytes = Encode(ids, delta);
    const std::vector<DeweyId> expected = ReferenceDecode(bytes);
    ASSERT_EQ(expected.size(), ids.size());
    DecodedBlock block;
    size_t pos = 0;
    const Status status = DecodeBlock(bytes.data(), bytes.size(), &pos,
                                      ids.size(), nullptr, 0, &block);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(pos, bytes.size());
    ExpectBlockEquals(block, expected, delta ? "delta" : "full");
  }
}

TEST(DecodeKernelTest, KernelsAgreeOnRandomListsAcrossBlockSizes) {
  for (const uint64_t seed : {1u, 7u, 99u}) {
    const std::vector<DeweyId> ids =
        RandomSortedIds(seed, 500, /*max_component=*/2000, /*max_depth=*/12);
    const std::vector<uint8_t> bytes = Encode(ids);
    const std::vector<DeweyId> expected = ReferenceDecode(bytes);
    for (const size_t max_entries : {size_t{1}, size_t{2}, size_t{7},
                                     size_t{64}, expected.size()}) {
      // Decode the stream in max_entries-sized chunks, carrying the
      // previous chunk's last entry across calls exactly as a blocked
      // cursor would.
      std::vector<DeweyId> got;
      std::vector<uint32_t> carry;
      size_t pos = 0;
      while (pos < bytes.size()) {
        DecodedBlock block;
        const Status status = DecodeBlock(
            bytes.data(), bytes.size(), &pos, max_entries,
            carry.empty() ? nullptr : carry.data(), carry.size(), &block);
        ASSERT_TRUE(status.ok()) << status.ToString();
        ASSERT_GT(block.count(), 0u);  // progress on every call
        for (size_t i = 0; i < block.count(); ++i) {
          got.push_back(DeweyId::FromView(block.entry(i)));
        }
        carry.assign(block.last_data(), block.last_data() + block.last_len());
      }
      ASSERT_EQ(got.size(), expected.size()) << "chunk=" << max_entries;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "chunk=" << max_entries << " entry " << i;
      }
    }
  }
}

TEST(DecodeKernelTest, MaxWidthComponentsSurviveEveryKernel) {
  // Every component at the 5-byte varint ceiling, at depth 64: the worst
  // case for the single-byte fast path (it must bail to the checked
  // slow path on every component without misreading a byte).
  std::vector<uint32_t> components(64, 0xFFFFFFFFu);
  components[0] = 0;
  std::vector<DeweyId> ids;
  ids.emplace_back(components);
  components.back() = 0;  // sorted order: ...0 sorts before ...max
  ids.emplace_back(std::move(components));
  std::swap(ids[0], ids[1]);
  const std::vector<uint8_t> bytes = Encode(ids);
  const std::vector<DeweyId> expected = ReferenceDecode(bytes);
  ASSERT_EQ(expected.size(), 2u);
  DecodedBlock block;
  size_t pos = 0;
  const Status status =
      DecodeBlock(bytes.data(), bytes.size(), &pos, 2, nullptr, 0, &block);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectBlockEquals(block, expected, "max width");
}

TEST(DecodeKernelTest, TruncatedTailsErrorOrStopAtEntryBoundary) {
  const std::vector<DeweyId> ids = MixedIds();
  const std::vector<uint8_t> bytes = Encode(ids);
  const std::vector<DeweyId> expected = ReferenceDecode(bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    DecodedBlock block;
    size_t pos = 0;
    const Status status =
        DecodeBlock(bytes.data(), cut, &pos, ids.size(), nullptr, 0, &block);
    if (status.ok()) {
      // A clean stop is only legal exactly between entries, with the
      // decoded prefix matching the reference and all input consumed.
      EXPECT_EQ(pos, cut) << "cut=" << cut;
      ASSERT_LT(block.count(), expected.size());
      for (size_t i = 0; i < block.count(); ++i) {
        EXPECT_EQ(DeweyId::FromView(block.entry(i)), expected[i])
            << "cut=" << cut;
      }
    } else {
      EXPECT_TRUE(status.IsCorruption())
          << "cut=" << cut << ": " << status.ToString();
      // The failed entry must be rolled back whole: pos sits on an
      // entry start and the partial components are gone.
      for (size_t i = 0; i < block.count(); ++i) {
        EXPECT_EQ(DeweyId::FromView(block.entry(i)), expected[i]);
      }
    }
  }
}

TEST(DecodeKernelTest, CorruptHeadersAreRejectedNotOverRead) {
  // shared=5 with no previous entry: exceeds the (empty) prefix.
  const std::vector<uint8_t> bad_shared = {5, 1, 3};
  // shared=0 added=0: an empty id.
  const std::vector<uint8_t> empty_id = {0, 0};
  // added with a pathological count (varint 0xFFFFFF7F ≈ 2^28): must be
  // rejected by the component-count bound, not attempted.
  const std::vector<uint8_t> huge_added = {0, 0xFF, 0xFF, 0xFF, 0x7F, 1};
  for (const std::vector<uint8_t>* bytes :
       {&bad_shared, &empty_id, &huge_added}) {
    DecodedBlock block;
    size_t pos = 0;
    const Status status = DecodeBlock(bytes->data(), bytes->size(), &pos, 10,
                                      nullptr, 0, &block);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_EQ(pos, 0u);
    EXPECT_EQ(block.count(), 0u);
  }
}

TEST(DecodeKernelTest, CarrySeedsTheSharedPrefixChain) {
  // Encode a stream whose second entry shares a deep prefix with the
  // first, then decode only the tail with the first entry as carry.
  const std::vector<DeweyId> ids =
      Ids({"0.1.2.3.4.5", "0.1.2.3.4.9", "0.1.2.7"});
  const std::vector<uint8_t> bytes = Encode(ids);
  // Find the byte offset of the second entry by decoding one entry.
  DecodedBlock first;
  size_t pos = 0;
  ASSERT_TRUE(DecodeBlock(bytes.data(), bytes.size(), &pos, 1, nullptr, 0,
                          &first)
                  .ok());
  ASSERT_EQ(first.count(), 1u);
  const std::vector<uint32_t> carry(
      first.last_data(), first.last_data() + first.last_len());
  DecodedBlock tail;
  size_t tail_pos = pos;
  const Status status = DecodeBlock(bytes.data(), bytes.size(), &tail_pos, 2,
                                    carry.data(), carry.size(), &tail);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(tail.count(), 2u);
  EXPECT_EQ(DeweyId::FromView(tail.entry(0)), ids[1]);
  EXPECT_EQ(DeweyId::FromView(tail.entry(1)), ids[2]);
}

void ExpectArenaTrimmed(const DecodedBlock& block, const std::string& context) {
  ASSERT_FALSE(block.offsets.empty()) << context;
  EXPECT_EQ(block.components.size(), block.offsets.back()) << context;
}

// The arena contract: after every DecodeBlock return — a full decode, an
// early stop at max_entries, and each corruption return mid-run — the
// arena holds exactly the decoded entries, so a later Append or a second
// DecodeBlock into the same block continues without a gap.
TEST(DecodeKernelTest, ArenaHoldsExactlyTheDecodedEntries) {
  const std::vector<DeweyId> ids = MixedIds();
  const std::vector<uint8_t> bytes = Encode(ids);

  DecodedBlock full;
  size_t pos = 0;
  ASSERT_TRUE(DecodeBlock(bytes.data(), bytes.size(), &pos, ids.size(),
                          nullptr, 0, &full)
                  .ok());
  ExpectArenaTrimmed(full, "full decode");
  ExpectBlockEquals(full, ids, "full decode");

  // Stop early, then continue the same stream into the same block.
  DecodedBlock block;
  pos = 0;
  ASSERT_TRUE(
      DecodeBlock(bytes.data(), bytes.size(), &pos, 5, nullptr, 0, &block)
          .ok());
  ExpectArenaTrimmed(block, "early stop");
  ASSERT_EQ(block.count(), 5u);
  const std::vector<uint32_t> carry(block.last_data(),
                                    block.last_data() + block.last_len());
  ASSERT_TRUE(DecodeBlock(bytes.data(), bytes.size(), &pos, ids.size(),
                          carry.data(), carry.size(), &block)
                  .ok());
  ExpectArenaTrimmed(block, "second decode");
  ExpectBlockEquals(block, ids, "second decode");

  block.Append(Id("0.9.9").view());
  ExpectArenaTrimmed(block, "append after decode");
  ASSERT_EQ(block.count(), ids.size() + 1);
  EXPECT_EQ(DeweyId::FromView(block.entry(ids.size())), Id("0.9.9"));
}

TEST(DecodeKernelTest, ArenaIsTrimmedOnEveryCorruptionReturn) {
  const std::vector<DeweyId> ids = MixedIds();
  const std::vector<uint8_t> valid = Encode(ids);
  const uint8_t last_depth = static_cast<uint8_t>(ids.back().depth());
  struct Case {
    const char* name;
    std::vector<uint8_t> tail;  // appended after the valid entries
  };
  const std::vector<Case> cases = {
      {"truncated header", {2}},  // shared with no added count
      {"shared above previous", {static_cast<uint8_t>(last_depth + 1), 1, 5}},
      {"empty id", {0, 0}},
      {"truncated component", {1, 3, 7, 8}},  // three added, two present
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes = valid;
    bytes.insert(bytes.end(), c.tail.begin(), c.tail.end());
    // Decode the first entries in one call and the rest (up to the
    // corrupt tail) in a second, so the failure lands mid-run in a block
    // that already holds entries.
    DecodedBlock block;
    size_t pos = 0;
    ASSERT_TRUE(
        DecodeBlock(bytes.data(), bytes.size(), &pos, 3, nullptr, 0, &block)
            .ok());
    const std::vector<uint32_t> carry(block.last_data(),
                                      block.last_data() + block.last_len());
    const Status status =
        DecodeBlock(bytes.data(), bytes.size(), &pos, bytes.size(),
                    carry.data(), carry.size(), &block);
    EXPECT_TRUE(status.IsCorruption()) << c.name << ": " << status.ToString();
    EXPECT_EQ(pos, valid.size()) << c.name;
    ExpectArenaTrimmed(block, c.name);
    ExpectBlockEquals(block, ids, c.name);

    block.Append(Id("0.9.9").view());
    ExpectArenaTrimmed(block, c.name);
    ASSERT_EQ(block.count(), ids.size() + 1) << c.name;
    EXPECT_EQ(DeweyId::FromView(block.entry(ids.size())), Id("0.9.9"))
        << c.name;
  }
}

// The arena may run ahead of the decode while it grows, but what it
// keeps must stay within a small factor of what was decoded: the result
// cache drops its scratch block by memory_bytes().
TEST(DecodeKernelTest, ArenaMemoryStaysNearTheDecodedSize) {
  const std::vector<DeweyId> ids =
      RandomSortedIds(5, 4000, /*max_component=*/300, /*max_depth=*/10);
  const std::vector<uint8_t> bytes = Encode(ids);
  size_t components = 0;
  for (const DeweyId& id : ids) components += id.depth();
  const size_t decoded_bytes = (components + ids.size() + 1) * sizeof(uint32_t);
  for (const size_t max_entries : {size_t{1}, size_t{64}, ids.size()}) {
    DecodedBlock block;
    std::vector<uint32_t> carry;
    size_t pos = 0;
    while (pos < bytes.size()) {
      ASSERT_TRUE(DecodeBlock(bytes.data(), bytes.size(), &pos, max_entries,
                              carry.empty() ? nullptr : carry.data(),
                              carry.size(), &block)
                      .ok());
      ExpectArenaTrimmed(block, "chunk=" + std::to_string(max_entries));
      carry.assign(block.last_data(), block.last_data() + block.last_len());
    }
    ExpectBlockEquals(block, ids, "chunk=" + std::to_string(max_entries));
    EXPECT_LE(block.memory_bytes(), 2 * decoded_bytes)
        << "chunk=" << max_entries;
  }
}

TEST(DecodeKernelTest, DecodedBlockReusesCapacityAcrossClear) {
  DecodedBlock block;
  block.Append(Id("0.1.2").view());
  block.Append(Id("0.1.3").view());
  const size_t bytes = block.memory_bytes();
  EXPECT_GT(bytes, 0u);
  block.Clear();
  EXPECT_EQ(block.count(), 0u);
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.memory_bytes(), bytes);  // capacity retained
}

}  // namespace
}  // namespace xksearch
