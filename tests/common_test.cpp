// Unit tests for the common substrate: status/result, byte codec, crc32,
// hex, rng/zipf, clocks.
#include <gtest/gtest.h>

#include <map>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace rgpdos {
namespace {

// ---- Status / Result -----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = ConsentDenied("purpose x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConsentDenied);
  EXPECT_EQ(s.ToString(), "CONSENT_DENIED: purpose x");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kErased); ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_THROW((void)r.value(), BadResultAccess);
}

TEST(ResultTest, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r{Status::Ok()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto fail = []() -> Result<int> { return NotFound("x"); };
  auto wrapper = [&]() -> Result<int> {
    RGPD_ASSIGN_OR_RETURN(int v, fail());
    return v + 1;
  };
  EXPECT_EQ(wrapper().status().code(), StatusCode::kNotFound);
}

// ---- ByteWriter / ByteReader ------------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-42);
  w.PutF64(3.25);
  w.PutBool(true);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 0xAB);
  EXPECT_EQ(*r.GetU16(), 0x1234);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_EQ(*r.GetF64(), 3.25);
  EXPECT_EQ(*r.GetBool(), true);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {0,    1,    127,        128,
                                 129,  255,  16383,      16384,
                                 1u << 21,   (1ull << 35) + 17,
                                 ~0ull};
  for (std::uint64_t v : cases) {
    ByteWriter w;
    w.PutVarint(v);
    ByteReader r(w.buffer());
    EXPECT_EQ(*r.GetVarint(), v) << v;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BytesTest, StringAndBytesRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutBytes(Bytes{1, 2, 3});
  w.PutString("");
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(*r.GetString(), "");
}

TEST(BytesTest, TruncatedInputIsCorruption) {
  ByteWriter w;
  w.PutU64(1);
  Bytes truncated = w.Take();
  truncated.resize(4);
  ByteReader r(truncated);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedVarintIsCorruption) {
  const Bytes bad = {0x80, 0x80};  // continuation bits, no terminator
  ByteReader r(bad);
  EXPECT_EQ(r.GetVarint().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, BoolOutOfRangeIsCorruption) {
  const Bytes bad = {2};
  ByteReader r(bad);
  EXPECT_EQ(r.GetBool().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, ContainsSubsequence) {
  const Bytes hay = ToBytes("the quick brown fox");
  EXPECT_TRUE(ContainsSubsequence(hay, ToBytes("quick")));
  EXPECT_TRUE(ContainsSubsequence(hay, ToBytes("the")));
  EXPECT_TRUE(ContainsSubsequence(hay, ToBytes("fox")));
  EXPECT_FALSE(ContainsSubsequence(hay, ToBytes("lazy")));
  EXPECT_TRUE(ContainsSubsequence(hay, ByteSpan{}));
  EXPECT_FALSE(ContainsSubsequence(ByteSpan{}, ToBytes("x")));
}

// ---- CRC32 ------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32(ToBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(ByteSpan{}), 0x00000000u);
  EXPECT_EQ(Crc32(ToBytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const Bytes data = ToBytes("hello crc32 world, split me up");
  Crc32Accumulator acc;
  acc.Update(ByteSpan(data.data(), 5));
  acc.Update(ByteSpan(data.data() + 5, data.size() - 5));
  EXPECT_EQ(acc.value(), Crc32(data));
}

/// Bitwise CRC-32 straight from the polynomial: the reference the
/// table-driven implementation must match byte for byte.
std::uint32_t ReferenceCrc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, EveryLengthAndAlignmentMatchesReference) {
  Bytes data(64 + 8);
  Rng rng(11);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.NextU64());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = data.data() + align;
      EXPECT_EQ(Crc32(ByteSpan(p, len)), ReferenceCrc32(p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32Test, SplitUpdatesMatchOneShotAtEverySplit) {
  Bytes data(150);
  Rng rng(12);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.NextU64());
  const std::uint32_t whole = Crc32(data);
  for (std::size_t a = 0; a <= data.size(); ++a) {
    for (std::size_t b = a; b <= data.size(); b += 7) {
      Crc32Accumulator acc;
      acc.Update(ByteSpan(data.data(), a));
      acc.Update(ByteSpan(data.data() + a, b - a));
      acc.Update(ByteSpan(data.data() + b, data.size() - b));
      ASSERT_EQ(acc.value(), whole) << "splits at " << a << ", " << b;
    }
  }
}

// ---- Hex --------------------------------------------------------------------------

TEST(HexTest, RoundTrip) {
  const Bytes data = {0x00, 0xFF, 0x12, 0xAB};
  EXPECT_EQ(HexEncode(data), "00ff12ab");
  EXPECT_EQ(*HexDecode("00ff12ab"), data);
  EXPECT_EQ(*HexDecode("00FF12AB"), data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // odd length
  EXPECT_FALSE(HexDecode("zz").ok());    // non-hex
  EXPECT_TRUE(HexDecode("").ok());       // empty is valid
}

// ---- Rng / Zipf ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NamesAreLowercaseAscii) {
  Rng rng(1);
  const std::string name = rng.NextName(32);
  EXPECT_EQ(name.size(), 32u);
  for (char c : name) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(ZipfTest, SkewsTowardsLowRanks) {
  Zipf zipf(1000, 0.99, 7);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next()];
  // Rank 0 must dominate rank 100 by a wide margin under theta=0.99.
  EXPECT_GT(counts[0], counts[100] * 3);
  for (const auto& [rank, count] : counts) EXPECT_LT(rank, 1000u);
}

TEST(ZipfTest, UniformWhenThetaIsZero) {
  Zipf zipf(10, 1e-9, 7);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next()];
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, 5000, 700) << "rank " << rank;
  }
}

// ---- Clocks -----------------------------------------------------------------------

TEST(ClockTest, SimClockAdvances) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.Set(7);
  EXPECT_EQ(clock.Now(), 7);
}

TEST(ClockTest, SystemClockIsRecent) {
  SystemClock clock;
  // Sanity: after 2020-01-01 and before 2100.
  EXPECT_GT(clock.Now(), 1'577'836'800'000'000LL);
  EXPECT_LT(clock.Now(), 4'102'444'800'000'000LL);
}

TEST(ClockTest, StopwatchMeasuresSomething) {
  Stopwatch watch;
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(watch.ElapsedNanos(), 0);
}

}  // namespace
}  // namespace rgpdos
