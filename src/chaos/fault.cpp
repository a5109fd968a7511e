#include "chaos/fault.hpp"

#include <array>
#include <charconv>
#include <span>

#include "common/hash.hpp"

namespace wsx::chaos {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kConnectionReset:
      return "reset";
    case FaultKind::kConnectTimeout:
      return "connect-timeout";
    case FaultKind::kReadTimeout:
      return "read-timeout";
    case FaultKind::kTruncatedBody:
      return "truncated-body";
    case FaultKind::kCorruptedByte:
      return "corrupted-byte";
    case FaultKind::kHttp502:
      return "http-502";
    case FaultKind::kHttp503:
      return "http-503";
    case FaultKind::kSlowResponse:
      return "slow-response";
    case FaultKind::kDuplicateDelivery:
      return "duplicate-delivery";
    case FaultKind::kDropContentType:
      return "drop-content-type";
    case FaultKind::kDropSoapAction:
      return "drop-soap-action";
    case FaultKind::kSoap12Rewrite:
      return "soap12-rewrite";
    case FaultKind::kMustUnderstandInject:
      return "mu-inject";
    case FaultKind::kContentTypeSkew:
      return "content-type-skew";
  }
  return "unknown";
}

namespace {

constexpr std::array<FaultKind, kFaultKindCount> kAllFaultKinds = {
    FaultKind::kConnectionReset, FaultKind::kConnectTimeout,
    FaultKind::kReadTimeout,     FaultKind::kTruncatedBody,
    FaultKind::kCorruptedByte,   FaultKind::kHttp502,
    FaultKind::kHttp503,         FaultKind::kSlowResponse,
    FaultKind::kDuplicateDelivery, FaultKind::kDropContentType,
    FaultKind::kDropSoapAction,    FaultKind::kSoap12Rewrite,
    FaultKind::kMustUnderstandInject, FaultKind::kContentTypeSkew,
};

/// The schedule a call id's chaos_hash draws.
CallSchedule schedule_for(const FaultPlan& plan, std::uint64_t hash) {
  if (plan.rate_percent == 0 || hash % 100 >= plan.rate_percent) {
    return CallSchedule::clean(hash);
  }
  const std::span<const FaultKind> kinds =
      plan.kinds.empty() ? std::span<const FaultKind>(kAllFaultKinds) : plan.kinds;
  const std::uint64_t kind_draw = splitmix64(hash);
  const std::uint64_t burst_draw = splitmix64(kind_draw);
  const unsigned max_burst = plan.max_burst == 0 ? 1 : plan.max_burst;
  return CallSchedule(kinds[kind_draw % kinds.size()],
                      1 + static_cast<unsigned>(burst_draw % max_burst), hash);
}

std::uint64_t finish_hash(std::uint64_t seed, std::uint64_t text_state) {
  return splitmix64(text_state ^ splitmix64(seed));
}

/// chaos_hash(seed, prefix + call_no in decimal), from the prefix's
/// call_id_prefix state: fnv1a continues from an earlier result.
std::uint64_t chain_call_hash(std::uint64_t seed, std::uint64_t prefix_state,
                              std::size_t call_no) {
  char digits[20];  // SIZE_MAX has 20 decimal digits
  const std::to_chars_result end = std::to_chars(digits, digits + sizeof digits, call_no);
  const std::string_view number(digits, static_cast<std::size_t>(end.ptr - digits));
  return finish_hash(seed, fnv1a(number, prefix_state));
}

}  // namespace

std::vector<FaultKind> all_fault_kinds() {
  return {kAllFaultKinds.begin(), kAllFaultKinds.end()};
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  for (FaultKind kind : kAllFaultKinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::uint64_t chaos_hash(std::uint64_t seed, std::string_view text) {
  return finish_hash(seed, fnv1a(text, kFnvShortBasis));
}

std::uint64_t call_id_prefix(std::string_view prefix) { return fnv1a(prefix, kFnvShortBasis); }

CallSchedule plan_call(const FaultPlan& plan, std::string_view call_id) {
  return schedule_for(plan, chaos_hash(plan.seed, call_id));
}

CallSchedule plan_call(const FaultPlan& plan, std::uint64_t prefix_state, std::size_t call_no) {
  return schedule_for(plan, chain_call_hash(plan.seed, prefix_state, call_no));
}

}  // namespace wsx::chaos
