// fingerprint.hpp — canonical shape fingerprint of a service description.
//
// The substitution index (docs/PREDICT.md) keys services by *shape*: the
// operation signatures, message parts and normalized XSD type structure
// that client tools actually consume. The fingerprint is a digest over a
// canonical serialization of the parsed model, so it is stable under
// namespace-prefix renaming (QNames are expanded to {uri}local), attribute
// and declaration reordering where XML order is insignificant, and any
// whitespace/formatting difference the parser already discards. Sequence
// particle order and message part order are shape-significant and kept.
//
// Deliberately excluded: wsdl:definitions/@name, documentation, source
// locations, and soap:address locations — the same service deployed under
// a different name or URL keeps its fingerprint.
#pragma once

#include <cstdint>
#include <string>

#include "wsdl/model.hpp"

namespace wsx::analysis {

/// A canonical-form digest plus the canonical text it was computed over
/// (kept for collision checks and for the property tests).
struct Fingerprint {
  std::uint64_t digest = 0;   ///< FNV-1a 64 over `canonical`
  std::string canonical;      ///< the canonical serialization

  /// 16-digit lowercase hex rendering of the digest.
  std::string hex() const;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.digest == b.digest && a.canonical == b.canonical;
  }
};

/// Computes the canonical shape fingerprint of `defs`.
Fingerprint fingerprint(const wsdl::Definitions& defs);

}  // namespace wsx::analysis
