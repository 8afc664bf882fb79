// Exact statistics over raw samples, and the body checksum the reply
// verifier compares against.
//
// Latencies are kept as raw samples (a few hundred thousand per run at
// most), so every percentile is exact: no bucket edges, no interpolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace e2e {

// 1-based nearest rank of the q-quantile among n samples: ceil(q·n), with a
// little slack so 0.99 × 1000 is 990 despite rounding, clamped to [1, n].
inline size_t nearest_rank(double q, size_t n) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Nearest-rank quantile: the smallest sample with at least ceil(q·n) samples
// at or below it.  Reorders `v` (nth_element); 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = nearest_rank(q, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// Samples strictly beyond the nearest-rank q-quantile.
inline size_t samples_beyond(size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(q, n);
}

// The highest of p90/p99/p99.9/p99.99 that still has at least ten samples
// beyond it (0 when even p90 has fewer).
inline double tail_quantile_level(size_t n) {
  double best = 0.0;
  for (double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

// 64-bit body checksum, eight bytes per step.  Not cryptographic: it only
// has to catch truncated, shifted or corrupted bodies.
inline uint64_t checksum(const char* data, size_t len) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = 0xCBF29CE484222325ull ^ (len * kMul);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  for (; i < len; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * kMul;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace e2e
