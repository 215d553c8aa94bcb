#include "dewey/codec.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;

int CompareEncodings(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const auto ai = static_cast<uint8_t>(a[i]);
    const auto bi = static_cast<uint8_t>(b[i]);
    if (ai != bi) return ai < bi ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

std::string Encode(const DeweyCodec& codec, const DeweyId& id) {
  std::string out;
  codec.EncodeTo(id.view(), &out);
  return out;
}

Result<DeweyId> Decode(const DeweyCodec& codec, std::string_view bytes) {
  DeweyId id;
  XKS_RETURN_NOT_OK(codec.DecodeInto(bytes, &id));
  return id;
}

TEST(LevelTableTest, ObserveTracksMaxWidths) {
  LevelTable table;
  table.Observe(Id("0.3.1"));
  table.Observe(Id("0.1.7.2"));
  // Width = bit width of the max component plus one spare bit for probe
  // saturation: level 0 max 0 -> 1; level 1 max 3 -> 3; level 2 max 7 ->
  // 4; level 3 max 2 -> 3.
  EXPECT_EQ(table.BitsAt(0), 1);
  EXPECT_EQ(table.BitsAt(1), 3);
  EXPECT_EQ(table.BitsAt(2), 4);
  EXPECT_EQ(table.BitsAt(3), 3);
  // Beyond observed depth: safe fallback of 32 bits.
  EXPECT_EQ(table.BitsAt(9), 32);
  EXPECT_EQ(table.TotalBits(), 11u);
}

TEST(LevelTableTest, SerializationRoundTrip) {
  LevelTable table;
  table.Observe(Id("0.100.5.1"));
  std::vector<uint8_t> buf;
  table.EncodeTo(&buf);
  size_t pos = 0;
  Result<LevelTable> decoded = LevelTable::DecodeFrom(buf.data(), buf.size(), &pos);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->bits(), table.bits());
  EXPECT_EQ(pos, buf.size());
}

TEST(LevelTableTest, DecodeRejectsCorruption) {
  std::vector<uint8_t> buf = {3, 1, 2};  // claims 3 entries, has 2
  size_t pos = 0;
  EXPECT_TRUE(
      LevelTable::DecodeFrom(buf.data(), buf.size(), &pos).status().IsCorruption());
  std::vector<uint8_t> wide = {1, 40};  // width 40 > 32
  pos = 0;
  EXPECT_TRUE(LevelTable::DecodeFrom(wide.data(), wide.size(), &pos)
                  .status()
                  .IsCorruption());
}

TEST(DeweyCodecTest, EncodeDecodeRoundTrip) {
  LevelTable table;
  const auto ids = Ids({"0", "0.5", "0.5.3", "0.2.7.1", "0.0.0.0.0"});
  for (const DeweyId& id : ids) table.Observe(id);
  DeweyCodec codec(table);
  for (const DeweyId& id : ids) {
    Result<DeweyId> decoded = Decode(codec, Encode(codec, id));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, id) << id.ToString();
  }
}

TEST(DeweyCodecTest, UncompressedCodecAlsoRoundTrips) {
  DeweyCodec codec((LevelTable()));  // all levels 32 bits
  for (const DeweyId& id : Ids({"0", "0.4000000000", "0.1.2.3.4.5"})) {
    Result<DeweyId> decoded = Decode(codec, Encode(codec, id));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, id);
  }
}

TEST(DeweyCodecTest, CompressionBeatsFixedWidth) {
  LevelTable table;
  std::vector<DeweyId> ids;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    ids.push_back(DeweyId({0, static_cast<uint32_t>(rng.Uniform(8)),
                           static_cast<uint32_t>(rng.Uniform(4)),
                           static_cast<uint32_t>(rng.Uniform(16))}));
    table.Observe(ids.back());
  }
  DeweyCodec compressed(table);
  DeweyCodec fixed((LevelTable()));
  size_t c = 0, f = 0;
  for (const DeweyId& id : ids) {
    c += Encode(compressed, id).size();
    f += Encode(fixed, id).size();
  }
  EXPECT_LT(c, f / 3);  // the level table should save a lot here
}

// Exact key bytes for a fixed level table with a width-0 level, a 32-bit
// level and ids deeper than the table (32-bit fallback levels), recorded
// from the bit-at-a-time encoder that wrote every existing .il file. Any
// change to these bytes changes the key order of indexes already on disk.
TEST(DeweyCodecTest, GoldenBytesMatchTheOnDiskKeyFormat) {
  const DeweyCodec codec(LevelTable(std::vector<uint8_t>{0, 3, 32, 5, 1, 7}));
  struct Golden {
    DeweyId id;
    std::vector<uint8_t> bytes;
  };
  const std::vector<Golden> lossless = {
      {Id("0"), {0x00}},
      {Id("0.5"), {0xd0}},
      {Id("0.7.4294967295.31.1.100"),
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x20}},
      {Id("0.2.123456789"), {0xa8, 0x3a, 0xde, 0x68, 0xa8}},
      {Id("0.1.0.0.0.0.77"),
       {0x98, 0x00, 0x00, 0x00, 0x04, 0x14, 0x04, 0x00, 0x00, 0x01, 0x34}},
      {Id("0.3.1.17.0.64.4000000000.5"),
       {0xb8, 0x00, 0x00, 0x00, 0x0e, 0x36, 0x07, 0xb9, 0xac, 0xa0, 0x02,
        0x00, 0x00, 0x00, 0x0a}},
  };
  // EncodeTo appends: encode everything into one buffer after a prefix,
  // as the index does behind its 4-byte term prefix.
  std::string all = "pre";
  std::vector<uint8_t> want = {'p', 'r', 'e'};
  DeweyId decoded({9, 9, 9, 9, 9, 9, 9, 9, 9});
  for (const Golden& g : lossless) {
    const std::string bytes = Encode(codec, g.id);
    EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()), g.bytes)
        << g.id.ToString();
    XKS_ASSERT_OK(codec.DecodeInto(bytes, &decoded));
    EXPECT_EQ(decoded, g.id);
    codec.EncodeTo(g.id.view(), &all);
    want.insert(want.end(), g.bytes.begin(), g.bytes.end());
  }
  EXPECT_EQ(std::vector<uint8_t>(all.begin(), all.end()), want);
  // Saturated probe components (9 > the 3-bit maximum 7, 3 > the 0-bit
  // maximum 0) encode to the all-ones value of their level.
  const std::string probe = Encode(codec, Id("0.9.2"));
  EXPECT_EQ(std::vector<uint8_t>(probe.begin(), probe.end()),
            (std::vector<uint8_t>{0xf8, 0x00, 0x00, 0x00, 0x10}));
  XKS_ASSERT_OK(codec.DecodeInto(probe, &decoded));
  EXPECT_EQ(decoded, Id("0.7.2"));
  const std::string root_probe = Encode(codec, Id("3.4"));
  EXPECT_EQ(std::vector<uint8_t>(root_probe.begin(), root_probe.end()),
            std::vector<uint8_t>{0xc0});
  XKS_ASSERT_OK(codec.DecodeInto(root_probe, &decoded));
  EXPECT_EQ(decoded, Id("0.4"));
}

TEST(DeweyCodecTest, DecodeRejectsTruncation) {
  LevelTable table;
  table.Observe(Id("0.1000.1000"));
  DeweyCodec codec(table);
  std::string enc = Encode(codec, Id("0.900.900"));
  enc.pop_back();
  EXPECT_TRUE(Decode(codec, enc).status().IsCorruption());
}

// Property: the encoding preserves document order byte-lexicographically.
// This is what lets the Indexed Lookup B+tree use plain byte keys.
TEST(DeweyCodecTest, OrderPreservationRandomized) {
  Rng rng(77);
  LevelTable table;
  std::vector<DeweyId> ids;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint32_t> comps = {0};
    const size_t depth = 1 + rng.Uniform(5);
    for (size_t d = 0; d < depth; ++d) {
      comps.push_back(static_cast<uint32_t>(rng.Uniform(30)));
    }
    ids.emplace_back(std::move(comps));
    table.Observe(ids.back());
  }
  DeweyCodec codec(table);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      const int id_order = ids[i].Compare(ids[j]);
      const int enc_order =
          CompareEncodings(Encode(codec, ids[i]), Encode(codec, ids[j]));
      EXPECT_EQ(id_order < 0, enc_order < 0)
          << ids[i].ToString() << " vs " << ids[j].ToString();
      EXPECT_EQ(id_order == 0, enc_order == 0);
    }
  }
}

// Probe ids with components beyond the observed maxima (Section 5 uncle
// probes, arbitrary rm targets) must still compare correctly against
// every stored id after encoding, thanks to saturation + the spare bit.
TEST(DeweyCodecTest, OversizedProbeComponentsKeepOrder) {
  LevelTable table;
  const auto stored = Ids({"0.0.1", "0.1.2", "0.3.0.1", "0.7"});
  for (const DeweyId& id : stored) table.Observe(id);
  DeweyCodec codec(table);
  const auto probes = Ids({"0.9", "0.8.100", "0.3.0.2", "0.3.1", "0.100.4",
                           "0.7.999", "0.0.500"});
  for (const DeweyId& probe : probes) {
    const std::string ep = Encode(codec, probe);
    for (const DeweyId& id : stored) {
      const int want = probe.Compare(id);
      const int got = CompareEncodings(ep, Encode(codec, id));
      EXPECT_EQ(want < 0, got < 0)
          << probe.ToString() << " vs " << id.ToString();
      EXPECT_EQ(want > 0, got > 0)
          << probe.ToString() << " vs " << id.ToString();
    }
  }
}

TEST(DeltaBlockTest, RoundTripSortedRun) {
  const auto ids =
      Ids({"0.0.1", "0.0.2", "0.0.2.5", "0.1", "0.1.0.0", "0.7.3"});
  DeltaBlockEncoder enc;
  for (const DeweyId& id : ids) enc.Append(id);
  EXPECT_EQ(enc.count(), ids.size());
  const std::vector<uint8_t> block = enc.Finish();

  DeltaBlockDecoder dec(block);
  std::vector<DeweyId> decoded;
  DeweyId id;
  while (dec.Next(&id)) decoded.push_back(id);
  ASSERT_TRUE(dec.status().ok()) << dec.status().ToString();
  EXPECT_EQ(decoded, ids);
}

TEST(DeltaBlockTest, DuplicatesAllowed) {
  DeltaBlockEncoder enc;
  enc.Append(Id("0.1"));
  enc.Append(Id("0.1"));
  const std::vector<uint8_t> block = enc.Finish();
  DeltaBlockDecoder dec(block);
  DeweyId id;
  EXPECT_TRUE(dec.Next(&id));
  EXPECT_TRUE(dec.Next(&id));
  EXPECT_EQ(id, Id("0.1"));
  EXPECT_FALSE(dec.Next(&id));
}

TEST(DeltaBlockTest, NonDeltaModeStoresFullIds) {
  const auto ids = Ids({"0.1.2.3.4", "0.1.2.3.5", "0.1.2.3.6"});
  DeltaBlockEncoder with_delta(true);
  DeltaBlockEncoder without_delta(false);
  for (const DeweyId& id : ids) {
    with_delta.Append(id);
    without_delta.Append(id);
  }
  EXPECT_LT(with_delta.SizeBytes(), without_delta.SizeBytes());
  // Both decode identically.
  const std::vector<uint8_t> block = without_delta.Finish();
  DeltaBlockDecoder dec(block);
  std::vector<DeweyId> decoded;
  DeweyId id;
  while (dec.Next(&id)) decoded.push_back(id);
  EXPECT_EQ(decoded, ids);
}

TEST(DeltaBlockTest, DecoderReportsCorruption) {
  DeltaBlockEncoder enc;
  enc.Append(Id("0.1.2"));
  enc.Append(Id("0.1.3"));
  std::vector<uint8_t> block = enc.Finish();
  block.resize(block.size() - 1);
  DeltaBlockDecoder dec(block);
  DeweyId id;
  EXPECT_TRUE(dec.Next(&id));
  EXPECT_FALSE(dec.Next(&id));
  EXPECT_TRUE(dec.status().IsCorruption());
}

TEST(DeltaBlockTest, FinishResetsEncoder) {
  DeltaBlockEncoder enc;
  enc.Append(Id("0.9"));
  enc.Finish();
  // After Finish a smaller id is fine; the encoder starts a new block.
  enc.Append(Id("0.1"));
  const std::vector<uint8_t> block = enc.Finish();
  DeltaBlockDecoder dec(block);
  DeweyId id;
  ASSERT_TRUE(dec.Next(&id));
  EXPECT_EQ(id, Id("0.1"));
}

}  // namespace
}  // namespace xksearch
