#include "util/rng.hpp"

#include <cmath>

namespace radio {

std::uint64_t Xoshiro256StarStar::uniform_below(std::uint64_t bound) noexcept {
  RADIO_EXPECTS(bound > 0);
  // Lemire 2019: multiply-shift with rejection in the low word.
  __extension__ using u128 = unsigned __int128;
  std::uint64_t x = (*this)();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

GeometricSkips::GeometricSkips(double p) noexcept {
  RADIO_EXPECTS(p > 0.0 && p <= 1.0);
  certain_ = p >= 1.0;
  if (!certain_) log_q_ = std::log1p(-p);
}

std::uint64_t GeometricSkips::operator()(Rng& rng) const noexcept {
  if (certain_) return 0;
  // Inverse CDF: floor(log(U) / log(1-p)) with U in (0, 1].
  const double u = 1.0 - rng.uniform();  // avoid log(0)
  const double skips = std::floor(std::log(u) / log_q_);
  // A single skip never needs to exceed ~2^63 in any realistic sweep; clamp
  // defensively so the cast below is well defined.
  if (skips >= 9.0e18) return 9'000'000'000'000'000'000ULL;
  return static_cast<std::uint64_t>(skips);
}

std::uint64_t Xoshiro256StarStar::binomial(std::uint64_t n, double p) noexcept {
  RADIO_EXPECTS(p >= 0.0 && p <= 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * q;
  std::uint64_t draw;
  if (mean < 32.0) {
    // Count successes by jumping between them geometrically: expected work
    // O(np), exact distribution.
    const GeometricSkips skips(q);
    std::uint64_t count = 0;
    std::uint64_t pos = skips(*this);
    while (pos < n) {
      ++count;
      pos += 1 + skips(*this);
    }
    draw = count;
  } else {
    // Normal approximation with continuity correction, clamped to [0, n].
    // Adequate for generator workloads (mean >= 32) and fully deterministic.
    const double sd = std::sqrt(mean * (1.0 - q));
    // Box-Muller from two uniforms.
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
    double v = std::round(mean + sd * z);
    if (v < 0.0) v = 0.0;
    if (v > static_cast<double>(n)) v = static_cast<double>(n);
    draw = static_cast<std::uint64_t>(v);
  }
  return flipped ? n - draw : draw;
}

std::uint64_t Xoshiro256StarStar::poisson(double mean) noexcept {
  RADIO_EXPECTS(mean >= 0.0);
  if (mean <= 0.0) return 0;
  // Knuth: count uniforms until their product drops below exp(-mean). Means
  // above kChunk are split into independent Poisson(kChunk) summands first —
  // exp(-500) ~ 7e-218 stays comfortably normal, while exp(-mean) for a
  // large mean would underflow to 0 and loop forever.
  constexpr double kChunk = 500.0;
  std::uint64_t count = 0;
  double remaining = mean;
  while (remaining > 0.0) {
    const double part = remaining < kChunk ? remaining : kChunk;
    remaining -= part;
    const double limit = std::exp(-part);
    double product = 1.0;
    for (;;) {
      product *= uniform();
      if (product <= limit) break;
      ++count;
    }
  }
  return count;
}

}  // namespace radio
