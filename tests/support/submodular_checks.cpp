#include "support/submodular_checks.h"

#include <limits>
#include <stdexcept>

namespace splicer::submodular {

namespace {
Subset from_mask(std::size_t n, std::uint64_t mask) {
  Subset s(n, 0);
  for (std::size_t i = 0; i < n; ++i) s[i] = (mask >> i) & 1 ? 1 : 0;
  return s;
}
}  // namespace

bool is_supermodular_exhaustive(const SetFunction& f, double tolerance) {
  const std::size_t n = f.ground_size;
  if (n > 16) throw std::invalid_argument("is_supermodular_exhaustive: n too large");
  const std::uint64_t limit = 1ULL << n;
  // Precompute all values.
  std::vector<double> value(limit);
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    value[mask] = f.value(from_mask(n, mask));
  }
  for (std::uint64_t b = 0; b < limit; ++b) {
    // Enumerate subsets a of b.
    for (std::uint64_t a = b;; a = (a - 1) & b) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bit = 1ULL << i;
        if (b & bit) continue;  // i must be outside B
        const double lhs = value[a | bit] - value[a];
        const double rhs = value[b | bit] - value[b];
        if (lhs > rhs + tolerance) return false;
      }
      if (a == 0) break;
    }
  }
  return true;
}

bool is_supermodular_sampled(const SetFunction& f, common::Rng& rng,
                             std::size_t trials, double tolerance) {
  const std::size_t n = f.ground_size;
  if (n == 0) return true;
  Subset a(n), b(n);
  for (std::size_t t = 0; t < trials; ++t) {
    std::size_t outside_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = rng.bernoulli(0.5) ? 1 : 0;
      a[i] = b[i] && rng.bernoulli(0.5) ? 1 : 0;
      if (!b[i]) ++outside_count;
    }
    if (outside_count == 0) continue;
    // Pick i outside B.
    std::size_t pick = rng.index(outside_count);
    std::size_t chosen = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!b[i] && pick-- == 0) {
        chosen = i;
        break;
      }
    }
    const double fa = f.value(a);
    const double fb = f.value(b);
    a[chosen] = 1;
    const double fai = f.value(a);
    a[chosen] = 0;
    b[chosen] = 1;
    const double fbi = f.value(b);
    b[chosen] = 0;
    if ((fai - fa) > (fbi - fb) + tolerance) return false;
  }
  return true;
}

namespace {
template <typename Better>
BruteForceResult brute_force(const SetFunction& f, Better&& better) {
  const std::size_t n = f.ground_size;
  if (n > 24) throw std::invalid_argument("brute_force: n too large");
  BruteForceResult best;
  best.value = std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t limit = 1ULL << n;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    const Subset s = from_mask(n, mask);
    const double v = f.value(s);
    if (mask == 0 || better(v, best.value)) {
      best.subset = s;
      best.value = v;
    }
  }
  return best;
}
}  // namespace

BruteForceResult brute_force_minimum(const SetFunction& f) {
  return brute_force(f, [](double a, double b) { return a < b; });
}

BruteForceResult brute_force_maximum(const SetFunction& f) {
  return brute_force(f, [](double a, double b) { return a > b; });
}

}  // namespace splicer::submodular
