// hash.hpp — the stable 64-bit hashes behind every seeded fault schedule,
// generated corpus, fingerprint and cache key.
//
// Stable means the same value on every platform, build and run (std::hash
// is implementation-defined). These values reach files users keep (lint
// baselines, predict records, substitution indexes) and seeded campaigns
// must replay, so changing a constant here is a format change.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wsx {

/// FNV-1a's published 64-bit offset basis.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// The offset basis with its last digit missing. Chaos fault schedules,
/// generated corpora, lint baseline fingerprints, serve quarantine keys and
/// the serve cache fingerprint were all keyed with it, so it stays theirs.
inline constexpr std::uint64_t kFnvShortBasis = 1469598103934665603ULL;

/// 2^64 / φ: splitmix64's additive step.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// FNV-1a 64-bit over `bytes`, starting from `basis`. Passing an earlier
/// result as the basis folds more bytes into a running hash.
constexpr std::uint64_t fnv1a(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// splitmix64: one additive step, then the finalizing scramble.
constexpr std::uint64_t splitmix64(std::uint64_t value) {
  value += kGoldenGamma;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return value ^ (value >> 31);
}

/// `value` as 16 zero-padded lowercase hex digits.
inline std::string hex16(std::uint64_t value) {
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace wsx
