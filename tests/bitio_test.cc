#include "common/bitio.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace xksearch {
namespace {

TEST(BitWriterTest, SingleByteRoundTrip) {
  std::string bytes;
  BitWriter w(&bytes);
  w.WriteBits(0b101, 3);
  w.WriteBits(0b01, 2);
  EXPECT_EQ(w.bit_count(), 5u);
  w.AlignToByte();
  ASSERT_EQ(bytes.size(), 1u);
  // 10101 followed by zero padding -> 1010'1000.
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0b10101000);
}

TEST(BitWriterTest, ZeroWidthWritesNothing) {
  std::string bytes;
  BitWriter w(&bytes);
  w.WriteBits(0, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  w.AlignToByte();
  EXPECT_TRUE(bytes.empty());
}

TEST(BitWriterTest, FullWidth32) {
  std::string bytes;
  BitWriter w(&bytes);
  w.WriteBits(0xDEADBEEF, 32);
  w.AlignToByte();
  ASSERT_EQ(bytes.size(), 4u);
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(32), 0xDEADBEEFu);
}

TEST(BitReaderTest, ReadsAcrossByteBoundaries) {
  std::string bytes;
  BitWriter w(&bytes);
  w.WriteBits(0x3, 2);
  w.WriteBits(0x1FF, 9);   // spans bytes
  w.WriteBits(0x0, 1);
  w.WriteBits(0x5A, 7);
  w.AlignToByte();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(2), 0x3u);
  EXPECT_EQ(r.ReadBits(9), 0x1FFu);
  EXPECT_EQ(r.ReadBits(1), 0x0u);
  EXPECT_EQ(r.ReadBits(7), 0x5Au);
}

TEST(BitReaderTest, AlignToByteSkipsPadding) {
  std::string bytes;
  BitWriter w(&bytes);
  w.WriteBits(1, 1);
  w.AlignToByte();
  w.WriteBits(0xAB, 8);
  w.AlignToByte();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(1), 1u);
  r.AlignToByte();
  EXPECT_EQ(r.ReadBits(8), 0xABu);
}

TEST(BitIoTest, RandomRoundTrip) {
  Rng rng(123);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::pair<uint32_t, int>> fields;
    std::string bytes;
    BitWriter w(&bytes);
    const size_t n = 1 + rng.Uniform(64);
    for (size_t i = 0; i < n; ++i) {
      const int width = static_cast<int>(1 + rng.Uniform(32));
      const uint32_t value =
          width == 32 ? static_cast<uint32_t>(rng.Next())
                      : static_cast<uint32_t>(rng.Uniform(1u << width));
      fields.emplace_back(value, width);
      w.WriteBits(value, width);
    }
    w.AlignToByte();
    BitReader r(bytes);
    for (const auto& [value, width] : fields) {
      EXPECT_EQ(r.ReadBits(width), value);
    }
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::vector<uint8_t> buf;
  PutVarint32(&buf, 0);
  PutVarint32(&buf, 127);
  EXPECT_EQ(buf.size(), 2u);
  size_t pos = 0;
  uint32_t v = 99;
  ASSERT_TRUE(GetVarint32(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(GetVarint32(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, 127u);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, BoundaryValues32) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, 0xffffffffu}) {
    std::vector<uint8_t> buf;
    PutVarint32(&buf, v);
    size_t pos = 0;
    uint32_t decoded = 0;
    ASSERT_TRUE(GetVarint32(buf.data(), buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, BoundaryValues64) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1} << 35, ~uint64_t{0}}) {
    std::vector<uint8_t> buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::vector<uint8_t> buf;
  PutVarint32(&buf, 1u << 20);
  buf.pop_back();
  size_t pos = 0;
  uint32_t v = 0;
  EXPECT_FALSE(GetVarint32(buf.data(), buf.size(), &pos, &v));
}

TEST(VarintTest, OverlongEncodingRejected) {
  // Five bytes whose final group carries bits beyond 32.
  const uint8_t bad[] = {0x80, 0x80, 0x80, 0x80, 0x7f};
  size_t pos = 0;
  uint32_t v = 0;
  EXPECT_FALSE(GetVarint32(bad, sizeof(bad), &pos, &v));
}

}  // namespace
}  // namespace xksearch
