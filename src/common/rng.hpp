// Deterministic pseudo-random number generation.
//
// Every stochastic component in the repository (workload mutators, trace
// synthesis, failure injection in tests) draws from these generators seeded
// explicitly by the caller, so every experiment is reproducible bit-for-bit
// across runs and machines. We implement SplitMix64 (seed expansion) and
// xoshiro256** (bulk generation) rather than using std::mt19937 because the
// standard library does not guarantee identical distribution output across
// implementations, and cross-platform determinism is a stated design goal.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace vecycle {

/// SplitMix64: tiny, passes BigCrush, the canonical way to turn one 64-bit
/// seed into a stream of well-mixed seeds for other generators.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
/// Satisfies std::uniform_random_bit_generator so it can drive standard
/// distributions where exact reproducibility is not required.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() { return Next(); }

  constexpr std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift reduction
  /// with rejection, giving an exactly uniform, implementation-independent
  /// result (unlike std::uniform_int_distribution).
  constexpr std::uint64_t NextBelow(std::uint64_t bound) {
    if (bound == 0) return 0;
    while (true) {
      const std::uint64_t x = Next();
      const unsigned __int128 m =
          static_cast<unsigned __int128>(x) * bound;
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform double in [0, 1) using the top 53 bits.
  constexpr double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  constexpr bool NextBool(double p) { return NextDouble() < p; }

  /// Binomial draw: the number of successes in `n` Bernoulli(p) trials,
  /// in O(1) expected time for any `n`. Built on Next() and <cmath>
  /// rather than std::binomial_distribution, whose algorithm (and so
  /// output) differs between standard libraries. Draws with p > 1/2 are
  /// taken as n - Bin(n, 1 - p); means below 10 use sequential
  /// inversion, larger ones Hörmann's BTRD ("The generation of binomial
  /// random variates", J. Stat. Comput. Simul. 46, 1993).
  std::uint64_t NextBinomial(std::uint64_t n, double p) {
    if (n == 0 || !(p > 0.0)) return 0;
    if (p >= 1.0) return n;
    if (p > 0.5) return n - NextBinomial(n, 1.0 - p);
    const double dn = static_cast<double>(n);
    return dn * p < 10.0 ? BinomialInversion(n, p) : BinomialBtrd(n, p);
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Walks the pmf from 0 with one uniform: f(x) = f(x-1)·((n+1)/x - 1)·s,
  // s = p/q. With np < 10 and p <= 1/2, f(0) = q^n >= e^-14, and the walk
  // takes np + 1 steps on average.
  std::uint64_t BinomialInversion(std::uint64_t n, double p) {
    const double s = p / (1.0 - p);
    const double a = (static_cast<double>(n) + 1.0) * s;
    double f = std::exp(static_cast<double>(n) * std::log1p(-p));
    double u = NextDouble();
    std::uint64_t x = 0;
    while (u > f && x < n) {
      u -= f;
      ++x;
      f *= a / static_cast<double>(x) - s;
    }
    return x;
  }

  // Stirling remainder f_c(k) = ln k! - (k + 1/2) ln(k + 1) + (k + 1)
  // - ln(2π)/2: tabulated below 10, series above.
  static double StirlingTail(double k) {
    static constexpr double kTail[] = {
        0.08106146679532733,  0.041340695955409457, 0.027677925684997717,
        0.020790672103765839, 0.016644691189820815, 0.013876128823072431,
        0.011896709945892869, 0.010411265261973224, 0.0092554621827090067,
        0.0083305634333590284};
    if (k < 10.0) return kTail[static_cast<int>(k)];
    const double kp1sq = (k + 1.0) * (k + 1.0);
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
  }

  // BTRD: transformed rejection with decomposition, for np >= 10 and
  // p <= 1/2. Step numbers follow the paper.
  std::uint64_t BinomialBtrd(std::uint64_t n, double p) {
    const double dn = static_cast<double>(n);
    const double q = 1.0 - p;
    const double m = std::floor((dn + 1.0) * p);
    const double r = p / q;
    const double nr = (dn + 1.0) * r;
    const double npq = dn * p * q;
    const double sqrt_npq = std::sqrt(npq);
    const double b = 1.15 + 2.53 * sqrt_npq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = dn * p + 0.5;
    const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
    const double v_r = 0.92 - 4.2 / b;
    const double u_rv_r = 0.86 * v_r;
    while (true) {
      // 1: immediate acceptance inside the table-mountain's core.
      double v = NextDouble();
      double u;
      if (v <= u_rv_r) {
        u = v / v_r - 0.43;
        return static_cast<std::uint64_t>(
            std::floor((2.0 * a / (0.5 - std::fabs(u)) + b) * u + c));
      }
      // 2: generate u (and v for the core's edge strip).
      if (v >= v_r) {
        u = NextDouble() - 0.5;
      } else {
        u = v / v_r - 0.93;
        u = (u < 0.0 ? -0.5 : 0.5) - u;
        v = NextDouble() * v_r;
      }
      // 3.0: candidate k.
      const double us = 0.5 - std::fabs(u);
      const double k = std::floor((2.0 * a / us + b) * u + c);
      if (k < 0.0 || k > dn) continue;
      v = v * alpha / (a / (us * us) + b);
      const double km = std::fabs(k - m);
      if (km <= 15.0) {
        // 3.1: exact pmf ratio f(k)/f(m) by recursion.
        double f = 1.0;
        if (m < k) {
          for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
        } else if (m > k) {
          for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
        }
        if (v <= f) return static_cast<std::uint64_t>(k);
        continue;
      }
      // 3.2: squeeze on ln(f(k)/f(m)).
      v = std::log(v);
      const double rho =
          (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
      const double t = -km * km / (2.0 * npq);
      if (v < t - rho) return static_cast<std::uint64_t>(k);
      if (v > t + rho) continue;
      // 3.3–3.4: final test against the Stirling-expanded ratio.
      const double nm = dn - m + 1.0;
      const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                       StirlingTail(m) + StirlingTail(dn - m);
      const double nk = dn - k + 1.0;
      if (v <= h + (dn + 1.0) * std::log(nm / nk) +
                   (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                   StirlingTail(k) - StirlingTail(dn - k)) {
        return static_cast<std::uint64_t>(k);
      }
    }
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vecycle
