// rng.hpp — the deterministic PRNG behind the catalogs and every generated
// corpus.
//
// One splitmix64 stream (common/hash.hpp), seeded one of two ways:
//   - Rng(state) starts from a raw state. The catalogs seed this way, and
//     their names must be bit-identical across runs and platforms, so no
//     std::mt19937 distribution (whose output the standard leaves open).
//   - Rng(seed, stream) folds (seed, stream-id string) through FNV-1a, the
//     construction the chaos fault planner uses for its per-call schedules.
//     Stream identity, not call order, then decides the numbers: two cases
//     never share a stream, so a generated corpus is byte-for-byte
//     identical at any worker count and under any generation order.
// Callers draw one value per statement: C++ leaves the order of the
// operands of `a + b` unspecified, so two draws in one expression would
// give a different stream on a compiler that evaluates them the other way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/hash.hpp"

namespace wsx {

class Rng {
 public:
  explicit Rng(std::uint64_t state) : state_(state) {}
  Rng(std::uint64_t seed, std::string_view stream)
      : state_(fnv1a(stream, kFnvShortBasis ^ (seed * kGoldenGamma))) {}

  /// The draw scrambles the state, which then advances by the same
  /// additive step.
  std::uint64_t next() {
    const std::uint64_t draw = splitmix64(state_);
    state_ += kGoldenGamma;
    return draw;
  }

  /// Uniform draw in [0, bound); 0 when bound is 0.
  std::size_t below(std::size_t bound) {
    return bound == 0 ? 0 : static_cast<std::size_t>(next() % bound);
  }

  /// True with probability percent/100.
  bool chance(unsigned percent) { return below(100) < percent; }

  char pick(std::string_view alphabet) {
    return alphabet.empty() ? 'a' : alphabet[below(alphabet.size())];
  }

 private:
  std::uint64_t state_;
};

}  // namespace wsx
