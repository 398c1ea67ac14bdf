#include "index/varbyte.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "flat_vbyte.hpp"
#include "util/rng.hpp"

namespace resex {
namespace {

TEST(Varbyte, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> out;
  varbyteEncode(0, out);
  varbyteEncode(127, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Varbyte, RoundTripBoundaries) {
  const std::vector<std::uint64_t> cases{
      0, 1, 127, 128, 16383, 16384, std::uint64_t{1} << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) {
    std::vector<std::uint8_t> bytes;
    varbyteEncode(v, bytes);
    std::size_t offset = 0;
    EXPECT_EQ(varbyteDecode(bytes, offset), v);
    EXPECT_EQ(offset, bytes.size());
  }
}

TEST(Varbyte, SequenceRoundTrip) {
  Rng rng(1);
  std::vector<std::uint64_t> values;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng() >> static_cast<int>(rng.below(60));
    values.push_back(v);
    varbyteEncode(v, bytes);
  }
  std::size_t offset = 0;
  for (const std::uint64_t v : values) EXPECT_EQ(varbyteDecode(bytes, offset), v);
  EXPECT_EQ(offset, bytes.size());
}

TEST(Varbyte, TruncatedInputThrows) {
  std::vector<std::uint8_t> bytes;
  varbyteEncode(1ULL << 20, bytes);
  bytes.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(varbyteDecode(bytes, offset), std::out_of_range);
}

TEST(Varbyte, MaxValueRoundTripsThroughTenGroups) {
  std::vector<std::uint8_t> bytes;
  varbyteEncode(std::numeric_limits<std::uint64_t>::max(), bytes);
  EXPECT_EQ(bytes.size(), 10u);  // 64 bits / 7 bits per group, rounded up
  std::size_t offset = 0;
  EXPECT_EQ(varbyteDecode(bytes, offset),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Varbyte, OverflowingTenthGroupThrows) {
  // Nine continuation groups put the tenth at shift 63, where only one
  // payload bit fits. Any tenth-group payload above 1 must throw instead
  // of silently dropping the high bits (the old code OR'd first and only
  // then noticed the shift was exhausted).
  for (std::uint8_t tenth : {std::uint8_t{0x82}, std::uint8_t{0x7F},
                             std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> bytes(9, 0x7F);  // continuation, payload 0x7F
    bytes.push_back(tenth);
    std::size_t offset = 0;
    if (tenth == 0xFF) {
      // 0xFF terminates with payload 0x7F > 1: overflow.
      EXPECT_THROW(varbyteDecode(bytes, offset), std::out_of_range);
    } else if (tenth == 0x82) {
      // Terminates with payload 2: bit 64 does not exist.
      EXPECT_THROW(varbyteDecode(bytes, offset), std::out_of_range);
    } else {
      // 0x7F continues past shift 63: the eleventh group can never fit.
      bytes.push_back(0x81);
      EXPECT_THROW(varbyteDecode(bytes, offset), std::out_of_range);
    }
  }
}

TEST(Varbyte, TenthGroupPayloadOneIsLegal) {
  // 0x7F * 9 then payload 1 terminated = all 64 bits set: UINT64_MAX.
  std::vector<std::uint8_t> bytes(9, 0x7F);
  bytes.push_back(0x81);
  std::size_t offset = 0;
  EXPECT_EQ(varbyteDecode(bytes, offset),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Varbyte, RawBufferOverloadMatchesVectorOverload) {
  Rng rng(3);
  std::vector<std::uint64_t> values;
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng() >> static_cast<int>(rng.below(60));
    values.push_back(v);
    varbyteEncode(v, bytes);
  }
  std::size_t vecOffset = 0, rawOffset = 0;
  for (const std::uint64_t v : values) {
    EXPECT_EQ(varbyteDecode(bytes, vecOffset), v);
    EXPECT_EQ(varbyteDecode(bytes.data(), bytes.size(), rawOffset), v);
  }
  EXPECT_EQ(vecOffset, rawOffset);

  // The raw overload honors `size` as a hard bound even when more bytes
  // exist past it (decoding a list's tail out of a larger mapped plane).
  std::size_t offset = 0;
  EXPECT_THROW(varbyteDecode(bytes.data(), 0, offset), std::out_of_range);
}

TEST(Monotone, RoundTrip) {
  const std::vector<std::uint32_t> docs{3, 7, 8, 100, 10000, 10001};
  EXPECT_EQ(decodeMonotone(encodeMonotone(docs)), docs);
}

TEST(Monotone, EmptyAndSingleton) {
  EXPECT_TRUE(decodeMonotone(encodeMonotone({})).empty());
  EXPECT_EQ(decodeMonotone(encodeMonotone({0})), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(decodeMonotone(encodeMonotone({42})), (std::vector<std::uint32_t>{42}));
}

TEST(Monotone, RejectsNonIncreasing) {
  EXPECT_THROW(encodeMonotone({5, 5}), std::invalid_argument);
  EXPECT_THROW(encodeMonotone({5, 3}), std::invalid_argument);
}

TEST(Monotone, DeltaCompressionBeatsRawForDenseLists) {
  std::vector<std::uint32_t> dense;
  for (std::uint32_t i = 1000000; i < 1002000; ++i) dense.push_back(i);
  const auto bytes = encodeMonotone(dense);
  // Deltas of 1 encode in 1 byte each (plus the first value).
  EXPECT_LT(bytes.size(), dense.size() + 8);
}

TEST(Monotone, LargeRandomRoundTrip) {
  Rng rng(7);
  std::vector<std::uint32_t> docs;
  std::uint32_t current = 0;
  for (int i = 0; i < 20000; ++i) {
    current += 1 + static_cast<std::uint32_t>(rng.below(1000));
    docs.push_back(current);
  }
  EXPECT_EQ(decodeMonotone(encodeMonotone(docs)), docs);
}

}  // namespace
}  // namespace resex
