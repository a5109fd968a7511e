// rng.hpp — the deterministic PRNG behind every generated corpus.
//
// Stream identity, not call order, decides the numbers: a generator is
// seeded by folding (seed, stream-id string) through FNV-1a — the same
// construction the chaos fault planner uses for its per-call schedules —
// and then advances with the splitmix64 step. Two cases never share a
// stream, so a corpus is byte-for-byte identical at any worker count and
// under any generation order.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/hash.hpp"

namespace wsx::gen {

class Rng {
 public:
  Rng(std::uint64_t seed, std::string_view stream)
      : state_(fnv1a(stream, kFnvShortBasis ^ (seed * kGoldenGamma))) {}

  /// splitmix64: the draw scrambles the state, which then advances by the
  /// same additive step.
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
  std::uint64_t state_ = 0;
};

}  // namespace wsx::gen
