// service.hpp — the echo services the study deploys.
//
// "Each service has a single operation with one input and one output
// variable of the same type. The operation simply returns the provided
// input without further processing." (paper §III.A.c)
#pragma once

#include <string>
#include <string_view>

#include "catalog/type_info.hpp"

namespace wsx::frameworks {

/// Service complexity levels. The paper's first batch is the simple echo
/// shape; kCrud implements its future work ("services with a higher level
/// of complexity to cover more elaborate patterns of inter-operation"):
/// three operations (store/fetch/list) with an unbounded array return.
enum class ServiceShape { kSimpleEcho, kCrud };

const char* to_string(ServiceShape shape);
/// Inverse of to_string(ServiceShape) — the `--shape` flag and the config
/// codec both read shapes through it; false when `text` names no shape.
bool from_string(std::string_view text, ServiceShape& out);

/// One generated test service over one native type.
struct ServiceSpec {
  const catalog::TypeInfo* type = nullptr;  ///< parameter/return type (non-null)
  ServiceShape shape = ServiceShape::kSimpleEcho;

  /// Service name derived from the type, e.g. "EchoW3CEndpointReference".
  std::string service_name() const;
  /// The simple shape's single operation ("echo").
  static std::string operation_name() { return "echo"; }
};

/// Builds one ServiceSpec per type in `catalog`.
std::vector<ServiceSpec> make_services(const catalog::TypeCatalog& catalog,
                                       ServiceShape shape = ServiceShape::kSimpleEcho);

}  // namespace wsx::frameworks
