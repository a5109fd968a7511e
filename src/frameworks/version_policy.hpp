// version_policy.hpp — the documented version-validation policy of each
// framework model, and the hybrid profile a client's policy implies.
//
// The mixed-version robustness axis asks: when a SOAP 1.1 message carries
// SOAP 1.2-era headers (WS-Addressing, WS-Security, XOP hints), does the
// receiving stack fault, ignore, or process? Real stacks fall into three
// documented camps, and the Digikoppeling WUS writeup (SNIPPETS.md) shows
// all three colliding in production:
//
//  * kStrict — version coherence enforced. Any 1.2-era extension header on
//    a 1.1 endpoint is rejected with a VersionMismatch fault, as is an
//    application/soap+xml Content-Type. WCF with AddressingVersion.None
//    behaves this way (it faults on wsa headers it was not configured
//    for), as do the generation-only stacks with no WS-* runtime at all.
//  * kRelaxed — the JAX-WS RI behaviour: unknown extension headers NOT
//    marked mustUnderstand are skipped silently; a mustUnderstand header
//    still faults (the processing model requires it).
//  * kShadedCxf — the shaded-CXF deployments of the Digikoppeling estate:
//    the bundled WS-Addressing/WS-Security modules engage, so 1.2-era
//    headers (mustUnderstand included) are processed, application/soap+xml
//    is accepted, and a genuine SOAP 1.2 envelope is answered in kind.
//
// Campaigns sweep a server-side policy override (--versions) against the
// hybrid message profile each client's own policy implies, producing the
// strict×relaxed×shaded matrix of the robustness axis.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "soap/version.hpp"

namespace wsx::frameworks {

enum class VersionPolicy {
  kStrict,
  kRelaxed,
  kShadedCxf,
};
inline constexpr std::size_t kVersionPolicyCount = 3;

/// CLI spelling: "strict" / "relaxed" / "shaded".
const char* to_string(VersionPolicy policy);
std::optional<VersionPolicy> parse_version_policy(std::string_view name);
/// parse_version_policy in the shape the config codec reads enums with.
inline bool from_string(std::string_view name, VersionPolicy& out) {
  const std::optional<VersionPolicy> policy = parse_version_policy(name);
  if (policy.has_value()) out = *policy;
  return policy.has_value();
}

/// Every policy, in enum order — the --versions error message and the
/// exhaustive sweeps in tests iterate this.
std::array<VersionPolicy, kVersionPolicyCount> all_version_policies();

/// The hybrid message profile a client with `policy` emits when the
/// versions axis is active: a strict runtime sends pure 1.1; a relaxed one
/// adds (ignorable) WS-Addressing headers; a shaded one sends the full
/// Digikoppeling shape with a mustUnderstand wsse:Security header.
soap::HybridProfile profile_for(VersionPolicy policy);

/// Markdown matrix of every framework model's documented policy and (for
/// clients) the hybrid profile it emits — the docs/VERSIONS.md and CLI
/// `--versions` reference table.
std::string format_version_policy_matrix();

}  // namespace wsx::frameworks
