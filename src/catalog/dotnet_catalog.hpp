// dotnet_catalog.hpp — the synthetic .NET Framework 4 type population.
#pragma once

#include <cstddef>
#include <cstdint>

#include "catalog/type_info.hpp"

namespace wsx::catalog {

/// Population quotas for the .NET catalog. Defaults reproduce the paper's
/// numbers (14082 crawled types, 2502 deployable).
struct DotNetCatalogSpec {
  std::uint64_t seed = 0x444F544Eu;  // "DOTN"

  // Deployable population: 2502 on WCF.
  std::size_t plain_types = 2111;
  std::size_t dataset_plain = 59;       ///< s:schema/s:lang idiom (base form)
  std::size_t dataset_duplicated = 13;  ///< + duplicate schema ref (breaks gSOAP)
  std::size_t dataset_nested = 3;       ///< + nested ref (breaks Axis1)
  std::size_t dataset_array = 1;        ///< + ref under unbounded (breaks suds)
  std::size_t encoded_binding = 1;      ///< WCF emits use="encoded"
  std::size_t missing_soap_action = 3;  ///< WCF omits soapAction
  std::size_t deep_nesting_clean = 284; ///< deep inline nesting (breaks jsc codegen)
  std::size_t deep_nesting_pathological = 17;  ///< + crashes the jsc compiler
  std::size_t generator_crash = 2;      ///< crashes the jsc *generator*
  // + 3 named wildcard types (DataTable, DataTableCollection, DataView),
  // + 1 named enum (SocketError), + 4 named WebControls = 2502 total.

  // Not deployable on WCF: 11580.
  std::size_t non_serializable = 4000;
  std::size_t no_default_ctor = 3500;
  std::size_t generic_types = 2080;
  std::size_t abstract_classes = 1200;
  std::size_t interfaces = 800;
};

/// The spec's fields, in the order a campaign config fingerprint renders
/// them (common/codec.hpp); every population quota is part of it.
template <class V>
void fields(V& v, DotNetCatalogSpec& spec) {
  v("seed", spec.seed);
  v("plain_types", spec.plain_types);
  v("dataset_plain", spec.dataset_plain);
  v("dataset_duplicated", spec.dataset_duplicated);
  v("dataset_nested", spec.dataset_nested);
  v("dataset_array", spec.dataset_array);
  v("encoded_binding", spec.encoded_binding);
  v("missing_soap_action", spec.missing_soap_action);
  v("deep_nesting_clean", spec.deep_nesting_clean);
  v("deep_nesting_pathological", spec.deep_nesting_pathological);
  v("generator_crash", spec.generator_crash);
  v("non_serializable", spec.non_serializable);
  v("no_default_ctor", spec.no_default_ctor);
  v("generic_types", spec.generic_types);
  v("abstract_classes", spec.abstract_classes);
  v("interfaces", spec.interfaces);
}

/// The spec as `--scale PCT` sizes it: each quota but the seed and the
/// single-defect ones (duplicated, nested and array datasets, encoded
/// binding, missing soapAction, generator crash) becomes
/// max(1, quota * percent / 100).
DotNetCatalogSpec scaled(DotNetCatalogSpec spec, std::size_t percent);

/// Builds the .NET catalog; with the default spec it contains exactly
/// 14082 types.
TypeCatalog make_dotnet_catalog(const DotNetCatalogSpec& spec = {});

namespace dotnet_names {
inline constexpr std::string_view kDataTable = "System.Data.DataTable";
inline constexpr std::string_view kDataTableCollection = "System.Data.DataTableCollection";
inline constexpr std::string_view kDataView = "System.Data.DataView";
inline constexpr std::string_view kSocketError = "System.Net.Sockets.SocketError";
}  // namespace dotnet_names

}  // namespace wsx::catalog
