// Units, rates, formatting, RNG determinism, and the check machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace vecycle {
namespace {

// --- Byte units. ---

TEST(Units, ByteConstructors) {
  EXPECT_EQ(KiB(1).count, 1024u);
  EXPECT_EQ(MiB(1).count, 1024u * 1024u);
  EXPECT_EQ(GiB(1).count, 1024ull * 1024 * 1024);
  EXPECT_EQ(Pages(2).count, 2 * kPageSize);
}

TEST(Units, ByteArithmetic) {
  EXPECT_EQ(MiB(1) + MiB(1), MiB(2));
  EXPECT_EQ(MiB(3) - MiB(1), MiB(2));
  EXPECT_EQ(MiB(2) * 3, MiB(6));
  Bytes b = MiB(1);
  b += MiB(2);
  EXPECT_EQ(b, MiB(3));
  b -= MiB(1);
  EXPECT_EQ(b, MiB(2));
}

TEST(Units, ByteConversions) {
  EXPECT_DOUBLE_EQ(ToMiB(MiB(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToGiB(GiB(2)), 2.0);
  EXPECT_DOUBLE_EQ(ToGiB(MiB(512)), 0.5);
}

// --- Rates. ---

TEST(Units, GigabitLinkMovesGigabyteInAboutTenSeconds) {
  // §4.4: "Copying one gigabyte takes about 10 seconds over a gigabit
  // link." (Raw serialization, before framing overhead.)
  const auto rate = GigabitsPerSecond(1.0);
  const double seconds = ToSeconds(rate.TimeFor(GiB(1)));
  EXPECT_NEAR(seconds, 8.6, 0.1);  // 2^30 bytes at 10^9 bits/s
}

TEST(Units, Md5RateMatchesPaperQuote) {
  // §3.4: 350 MiB/s — 1 GiB of hashing takes ~2.9 s.
  const auto rate = MiBPerSecond(350.0);
  EXPECT_NEAR(ToSeconds(rate.TimeFor(GiB(1))), 1024.0 / 350.0, 0.01);
}

TEST(Units, TimeForZeroBytesIsZero) {
  EXPECT_EQ(MiBPerSecond(100.0).TimeFor(Bytes{0}), SimDuration::zero());
}

TEST(Units, TimeForRoundsUpToNanosecond) {
  // One byte at an absurdly high rate still takes at least 1 ns.
  EXPECT_GE(GigabitsPerSecond(100.0).TimeFor(Bytes{1}).count(), 1);
}

TEST(Units, DurationHelpers) {
  EXPECT_EQ(Hours(1), Minutes(60));
  EXPECT_EQ(Minutes(1), Seconds(60));
  EXPECT_DOUBLE_EQ(ToSeconds(Milliseconds(27.0)), 0.027);
}

TEST(Units, FormatBytesPicksUnit) {
  EXPECT_EQ(FormatBytes(Bytes{512}), "512 B");
  EXPECT_EQ(FormatBytes(KiB(2)), "2.00 KiB");
  EXPECT_EQ(FormatBytes(MiB(3)), "3.00 MiB");
  EXPECT_EQ(FormatBytes(GiB(1)), "1.00 GiB");
}

TEST(Units, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(Seconds(90.0)), "1.50 min");
  EXPECT_EQ(FormatDuration(Seconds(2.5)), "2.50 s");
  EXPECT_EQ(FormatDuration(Milliseconds(12.0)), "12.00 ms");
  EXPECT_EQ(FormatDuration(Hours(25.0)), "25.00 h");
}

// --- RNG. ---

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  EXPECT_NE(SplitMix64(1).Next(), SplitMix64(2).Next());
}

TEST(Rng, XoshiroIsDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Xoshiro256 rng(17);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBelow(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolMatchesProbability) {
  Xoshiro256 rng(23);
  int heads = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads, kDraws * 0.3, kDraws * 0.02);
}

TEST(Rng, NextBoolDegenerateProbabilities) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

// --- Binomial draws. ---

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class RngBinomial : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(RngBinomial, MomentsMatch) {
  const auto [n, p] = GetParam();
  constexpr int kDraws = 100000;
  Xoshiro256 rng(n ^ 0xb1);
  double sum = 0;
  double sum_sq = 0;
  double sum_cube = 0;
  const double mean = static_cast<double>(n) * p;
  const double variance = mean * (1.0 - p);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t k = rng.NextBinomial(n, p);
    ASSERT_LE(k, n);
    const double d = static_cast<double>(k) - mean;
    sum += d;
    sum_sq += d * d;
    sum_cube += d * d * d;
  }
  const double sd = std::sqrt(variance);
  // Sample mean within 5 standard errors; sample variance within 5
  // standard errors of its own (sqrt(2/N) relative, near-normal).
  EXPECT_NEAR(sum / kDraws, 0.0, 5.0 * sd / std::sqrt(kDraws));
  EXPECT_NEAR(sum_sq / kDraws / variance, 1.0,
              5.0 * std::sqrt(3.0 / kDraws));
  // Skewness (1 - 2p) / sd, within 0.05 absolute.
  EXPECT_NEAR(sum_cube / kDraws / (variance * sd), (1.0 - 2.0 * p) / sd,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RngBinomial,
    ::testing::Values(BinomialCase{5, 0.3},            // inversion
                      BinomialCase{100, 0.1},          // BTRD, np = 10
                      BinomialCase{2520000, 1.0 / 256},  // BTRD, wide
                      BinomialCase{123, 0.9}),         // n - Bin(n, 0.1)
    [](const ::testing::TestParamInfo<BinomialCase>& info) {
      // p in ten-thousandths: n5_p3000 is Bin(5, 0.3).
      return "n" + std::to_string(info.param.n) + "_p" +
             std::to_string(std::lround(info.param.p * 1e4));
    });

TEST(Rng, BinomialPmfMatchesAroundTheInversionBtrdSwitch) {
  // Total variation distance between the sampled and the exact pmf, on
  // both sides of np = 10 where the generator switches algorithm.
  for (const BinomialCase c : {BinomialCase{40, 0.24}, BinomialCase{40, 0.25},
                               BinomialCase{30, 0.5}}) {
    constexpr int kDraws = 200000;
    Xoshiro256 rng(97);
    std::vector<double> freq(c.n + 1, 0.0);
    for (int i = 0; i < kDraws; ++i) freq[rng.NextBinomial(c.n, c.p)] += 1;
    double tv = 0;
    for (std::uint64_t k = 0; k <= c.n; ++k) {
      const double dn = static_cast<double>(c.n);
      const double dk = static_cast<double>(k);
      const double pmf =
          std::exp(std::lgamma(dn + 1) - std::lgamma(dk + 1) -
                   std::lgamma(dn - dk + 1) + dk * std::log(c.p) +
                   (dn - dk) * std::log1p(-c.p));
      tv += std::fabs(freq[k] / kDraws - pmf);
    }
    EXPECT_LT(tv / 2, 0.01) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(Rng, BinomialEdges) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.NextBinomial(0, 1.0), 0u);
    EXPECT_EQ(rng.NextBinomial(1000, 0.0), 0u);
    EXPECT_EQ(rng.NextBinomial(1000, 1.0), 1000u);
    EXPECT_EQ(rng.NextBinomial(1ull << 40, 1.0), 1ull << 40);
    EXPECT_LE(rng.NextBinomial(1, 0.5), 1u);
  }
}

TEST(Rng, BinomialIsDeterministic) {
  Xoshiro256 a(41);
  Xoshiro256 b(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextBinomial(5000, 0.37), b.NextBinomial(5000, 0.37));
  }
}

// --- Check machinery. ---

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(VEC_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithExpression) {
  try {
    VEC_CHECK(1 == 2);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, MessageIsAppended) {
  try {
    VEC_CHECK_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("extra context"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace vecycle
