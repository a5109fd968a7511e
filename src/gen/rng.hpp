// rng.hpp — the generated corpora's PRNG: the common splitmix64 stream
// (common/rng.hpp), seeded by (seed, stream-id string).
#pragma once

#include "common/rng.hpp"

namespace wsx::gen {

using Rng = wsx::Rng;

}  // namespace wsx::gen
