#include "frameworks/service.hpp"

namespace wsx::frameworks {

const char* to_string(ServiceShape shape) {
  return shape == ServiceShape::kSimpleEcho ? "simple-echo" : "crud";
}

bool from_string(std::string_view text, ServiceShape& out) {
  for (const ServiceShape shape : {ServiceShape::kSimpleEcho, ServiceShape::kCrud}) {
    if (text == to_string(shape)) {
      out = shape;
      return true;
    }
  }
  return false;
}

std::string ServiceSpec::service_name() const {
  const std::string_view prefix = shape == ServiceShape::kSimpleEcho ? "Echo" : "Crud";
  const std::string_view type_name =
      type != nullptr ? std::string_view(type->name) : std::string_view("Unknown");
  std::string name;
  name.reserve(prefix.size() + type_name.size());
  name.append(prefix).append(type_name);
  return name;
}

std::vector<ServiceSpec> make_services(const catalog::TypeCatalog& catalog,
                                       ServiceShape shape) {
  std::vector<ServiceSpec> services;
  services.reserve(catalog.size());
  for (const catalog::TypeInfo& type : catalog.types()) {
    services.push_back(ServiceSpec{&type, shape});
  }
  return services;
}

}  // namespace wsx::frameworks
