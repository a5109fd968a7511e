// java_catalog.hpp — the synthetic Java SE 7 type population.
#pragma once

#include <cstddef>
#include <cstdint>

#include "catalog/type_info.hpp"

namespace wsx::catalog {

/// Population quotas for the Java catalog. Defaults reproduce the paper's
/// numbers; tests and ablation benches scale them down.
struct JavaCatalogSpec {
  std::uint64_t seed = 0x4A415641u;  // "JAVA"

  // Deployable (bean-compatible) population: 2489 deploy on Metro.
  std::size_t plain_beans = 1780;
  std::size_t throwable_clean = 412;  ///< Throwable-derived, clean generics
  std::size_t throwable_raw = 65;     ///< Throwable-derived with raw generic API
  std::size_t raw_generic_beans = 178;
  std::size_t anytype_array_beans = 50;
  // + 4 named special classes (W3CEndpointReference, SimpleDateFormat,
  //   XMLGregorianCalendar, NameValuePair) = 2489 total.

  // JAX-WS async interfaces: rejected by Metro, accepted by JBossWS.
  std::size_t async_interfaces = 2;  // Future, Response (named)

  // Not deployable anywhere: 1480.
  std::size_t no_default_ctor = 600;
  std::size_t abstract_classes = 300;
  std::size_t interfaces = 400;
  std::size_t generic_types = 180;
};

/// The spec's fields, in the order a campaign config fingerprint renders
/// them (common/codec.hpp); every population quota is part of it.
template <class V>
void fields(V& v, JavaCatalogSpec& spec) {
  v("seed", spec.seed);
  v("plain_beans", spec.plain_beans);
  v("throwable_clean", spec.throwable_clean);
  v("throwable_raw", spec.throwable_raw);
  v("raw_generic_beans", spec.raw_generic_beans);
  v("anytype_array_beans", spec.anytype_array_beans);
  v("async_interfaces", spec.async_interfaces);
  v("no_default_ctor", spec.no_default_ctor);
  v("abstract_classes", spec.abstract_classes);
  v("interfaces", spec.interfaces);
  v("generic_types", spec.generic_types);
}

/// The spec as `--scale PCT` sizes it: each quota but the seed and the async
/// interfaces becomes max(1, quota * percent / 100).
JavaCatalogSpec scaled(JavaCatalogSpec spec, std::size_t percent);

/// Builds the Java catalog; with the default spec it contains exactly 3971
/// types, matching the paper's crawl of the Java SE 7 API docs.
TypeCatalog make_java_catalog(const JavaCatalogSpec& spec = {});

/// Qualified names of the special classes the paper calls out.
namespace java_names {
inline constexpr std::string_view kW3CEndpointReference =
    "javax.xml.ws.wsaddressing.W3CEndpointReference";
inline constexpr std::string_view kSimpleDateFormat = "java.text.SimpleDateFormat";
inline constexpr std::string_view kXmlGregorianCalendar =
    "javax.xml.datatype.XMLGregorianCalendar";
inline constexpr std::string_view kFuture = "java.util.concurrent.Future";
inline constexpr std::string_view kResponse = "javax.xml.ws.Response";
/// The paper reports one VB-only collision on each Java platform without
/// naming the class; we model it with CORBA's NameValuePair, whose
/// generated artifacts carry case-colliding members.
inline constexpr std::string_view kNameValuePair = "org.omg.CORBA.NameValuePair";
}  // namespace java_names

}  // namespace wsx::catalog
