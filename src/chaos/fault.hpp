// fault.hpp — the wire fault taxonomy and the deterministic fault plan.
//
// A FaultPlan decides, per logical call, whether the wire misbehaves, with
// which fault kind, and for how many consecutive delivery attempts (the
// burst). The decision is a pure function of (seed, call id), so the same
// plan produces the same schedule for every worker count and run — the
// chaos study's determinism guarantee rests on this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wsx::chaos {

/// The wire-level fault kinds the chaos wire can inject.
enum class FaultKind {
  kConnectionReset,   ///< TCP RST before the server sees the request
  kConnectTimeout,    ///< connection never establishes
  kReadTimeout,       ///< server executes, the response never arrives
  kTruncatedBody,     ///< response body cut mid-document
  kCorruptedByte,     ///< one byte of the response body flipped
  kHttp502,           ///< intermediary answers 502 Bad Gateway
  kHttp503,           ///< intermediary answers 503 Service Unavailable
  kSlowResponse,      ///< response arrives, but slower than most timeouts
  kDuplicateDelivery, ///< request delivered (and executed) twice
  kDropContentType,   ///< Content-Type header lost in transit
  kDropSoapAction,    ///< SOAPAction header lost in transit
  // Version-skew faults: a mixed-version intermediary (shaded gateway, MTOM
  // proxy, WS-A-adding ESB) mangles the *request*'s version coherence in
  // transit. Downgrade-capable clients recover by retransmitting the
  // 1.1-coherent form (ResiliencePolicy::downgrade_on_version_mismatch).
  kSoap12Rewrite,        ///< envelope namespace rewritten 1.1 → 1.2
  kMustUnderstandInject, ///< 1.2-era mustUnderstand header injected
  kContentTypeSkew,      ///< Content-Type flips to application/soap+xml
                         ///< while the envelope stays 1.1
};
inline constexpr std::size_t kFaultKindCount = 14;

const char* to_string(FaultKind kind);

/// All kinds, in declaration order.
std::vector<FaultKind> all_fault_kinds();

/// Parses the CLI spelling ("reset", "read-timeout", "http-503", ...).
std::optional<FaultKind> parse_fault_kind(std::string_view name);
/// parse_fault_kind in the shape the config codec reads enums with.
inline bool from_string(std::string_view name, FaultKind& out) {
  const std::optional<FaultKind> kind = parse_fault_kind(name);
  if (kind.has_value()) out = *kind;
  return kind.has_value();
}

/// Deterministic 64-bit hash of (seed, text); the sole randomness source
/// of the chaos subsystem (schedules, corruption offsets, backoff jitter).
std::uint64_t chaos_hash(std::uint64_t seed, std::string_view text);

/// The hash state of a prefix that call ids share ("scope|service|client|"),
/// for plan_call(plan, prefix_state, call_no).
std::uint64_t call_id_prefix(std::string_view prefix);

/// The campaign-wide injection policy.
struct FaultPlan {
  std::uint64_t seed = 7;
  /// Fraction of logical calls hit by a fault, in percent (0 = clean wire).
  unsigned rate_percent = 30;
  /// Enabled kinds; empty means all of them.
  std::vector<FaultKind> kinds;
  /// A fault persists for 1..max_burst consecutive attempts of the call it
  /// hits (the burst length is drawn deterministically per call).
  unsigned max_burst = 3;
};

/// The fault schedule of one logical call: which kind (if any) hits which
/// attempts. Attempts 0..burst-1 of a faulted call see the fault; later
/// attempts go through cleanly — a retrying client can outlast the burst.
class CallSchedule {
 public:
  CallSchedule() = default;
  CallSchedule(FaultKind kind, unsigned burst, std::uint64_t salt)
      : kind_(kind), burst_(burst), salt_(salt) {}

  std::optional<FaultKind> fault_for_attempt(unsigned attempt) const {
    if (kind_.has_value() && attempt < burst_) return kind_;
    return std::nullopt;
  }
  bool faulted() const { return kind_.has_value(); }
  unsigned burst() const { return burst_; }
  /// Per-call entropy for corruption offsets and backoff jitter.
  std::uint64_t salt() const { return salt_; }

  static CallSchedule clean(std::uint64_t salt) {
    CallSchedule schedule;
    schedule.salt_ = salt;
    return schedule;
  }

 private:
  std::optional<FaultKind> kind_;
  unsigned burst_ = 0;
  std::uint64_t salt_ = 0;
};

/// Draws the schedule for the call identified by `call_id` (a stable
/// "server|service|client|call#" string). Pure and deterministic.
CallSchedule plan_call(const FaultPlan& plan, std::string_view call_id);
/// The schedule of the id `prefix` + `call_no` in decimal, given
/// call_id_prefix(prefix): a chain hashes its shared prefix once and each
/// call folds in only its number. Same hash, same schedule.
CallSchedule plan_call(const FaultPlan& plan, std::uint64_t prefix_state, std::size_t call_no);

}  // namespace wsx::chaos
