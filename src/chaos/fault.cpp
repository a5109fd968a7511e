#include "chaos/fault.hpp"

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

std::vector<FaultKind> all_fault_kinds() {
  return {
      FaultKind::kConnectionReset, FaultKind::kConnectTimeout,
      FaultKind::kReadTimeout,     FaultKind::kTruncatedBody,
      FaultKind::kCorruptedByte,   FaultKind::kHttp502,
      FaultKind::kHttp503,         FaultKind::kSlowResponse,
      FaultKind::kDuplicateDelivery, FaultKind::kDropContentType,
      FaultKind::kDropSoapAction,    FaultKind::kSoap12Rewrite,
      FaultKind::kMustUnderstandInject, FaultKind::kContentTypeSkew,
  };
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  for (FaultKind kind : all_fault_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::uint64_t chaos_hash(std::uint64_t seed, std::string_view text) {
  return splitmix64(fnv1a(text, kFnvShortBasis) ^ splitmix64(seed));
}

CallSchedule plan_call(const FaultPlan& plan, std::string_view call_id) {
  const std::uint64_t hash = chaos_hash(plan.seed, call_id);
  if (plan.rate_percent == 0 || hash % 100 >= plan.rate_percent) {
    return CallSchedule::clean(hash);
  }
  const std::vector<FaultKind> kinds =
      plan.kinds.empty() ? all_fault_kinds() : plan.kinds;
  const std::uint64_t kind_draw = splitmix64(hash);
  const std::uint64_t burst_draw = splitmix64(kind_draw);
  const unsigned max_burst = plan.max_burst == 0 ? 1 : plan.max_burst;
  return CallSchedule(kinds[kind_draw % kinds.size()],
                      1 + static_cast<unsigned>(burst_draw % max_burst), hash);
}

}  // namespace wsx::chaos
