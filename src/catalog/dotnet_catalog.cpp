#include "catalog/dotnet_catalog.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "catalog/name_pool.hpp"

namespace wsx::catalog {
namespace {

constexpr std::array kPackages = {
    "System",            "System.Collections", "System.ComponentModel", "System.Data",
    "System.Diagnostics", "System.Drawing",    "System.Globalization",  "System.IO",
    "System.Linq",       "System.Net",         "System.Net.Sockets",    "System.Reflection",
    "System.Runtime",    "System.Security",    "System.Text",           "System.Threading",
    "System.Web",        "System.Web.UI",      "System.Windows.Forms",  "System.Xml",
    "System.Xml.Schema", "System.ServiceModel", "System.Transactions",  "System.Configuration",
};

std::string pick_package(Rng& rng) { return kPackages[rng.below(kPackages.size())]; }

void add_plain_fields(NamePool& pool, TypeInfo& type) {
  const std::size_t count = 1 + pool.rng().below(4);
  // The catalog lives for the whole run: no spare capacity.
  type.fields.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FieldSpec field;
    field.name = pool.next_field_name() + (i == 0 ? "" : std::to_string(i));
    field.type = pool.next_field_type();
    type.fields.push_back(std::move(field));
  }
}

TypeInfo make_type(NamePool& pool, const std::string& suffix = "") {
  TypeInfo type;
  type.language = SourceLanguage::kCSharp;
  type.package = pick_package(pool.rng());
  type.name = pool.next_class_name(suffix);
  type.set(Trait::kDefaultCtor);
  type.set(Trait::kSerializable);
  add_plain_fields(pool, type);
  return type;
}

TypeInfo make_named(std::string package, std::string name) {
  TypeInfo type;
  type.language = SourceLanguage::kCSharp;
  type.package = std::move(package);
  type.name = std::move(name);
  type.set(Trait::kDefaultCtor);
  type.set(Trait::kSerializable);
  return type;
}

}  // namespace

DotNetCatalogSpec scaled(DotNetCatalogSpec spec, std::size_t percent) {
  for (std::size_t* quota :
       {&spec.plain_types, &spec.dataset_plain, &spec.deep_nesting_clean,
        &spec.deep_nesting_pathological, &spec.non_serializable, &spec.no_default_ctor,
        &spec.generic_types, &spec.abstract_classes, &spec.interfaces}) {
    *quota = std::max<std::size_t>(1, *quota * percent / 100);
  }
  return spec;
}

TypeCatalog make_dotnet_catalog(const DotNetCatalogSpec& spec) {
  const std::size_t total = 8 + spec.plain_types + spec.dataset_plain + spec.dataset_duplicated +
                            spec.dataset_nested + spec.dataset_array + spec.encoded_binding +
                            spec.missing_soap_action + spec.deep_nesting_clean +
                            spec.deep_nesting_pathological + spec.generator_crash +
                            spec.non_serializable + spec.no_default_ctor + spec.generic_types +
                            spec.abstract_classes + spec.interfaces;
  NamePool pool{spec.seed, total};
  std::vector<TypeInfo> types;
  types.reserve(total);

  // --- Named special types. ---
  {
    TypeInfo type = make_named("System.Data", "DataTable");
    type.set(Trait::kWildcardContent);
    type.set(Trait::kDoubleWildcard);
    types.push_back(std::move(type));
  }
  {
    TypeInfo type = make_named("System.Data", "DataTableCollection");
    type.set(Trait::kWildcardContent);
    type.set(Trait::kDoubleWildcard);
    types.push_back(std::move(type));
  }
  {
    TypeInfo type = make_named("System.Data", "DataView");
    type.set(Trait::kWildcardContent);
    types.push_back(std::move(type));
  }
  {
    TypeInfo type = make_named("System.Net.Sockets", "SocketError");
    type.set(Trait::kEnumType);
    type.enum_values = {"Success", "SocketError", "ConnectionReset", "TimedOut", "HostNotFound"};
    types.push_back(std::move(type));
  }
  // The four WebControls whose VB artifacts collide (paper §IV.B.3).
  for (const char* name : {"Label", "ListItem", "Button", "HyperLink"}) {
    TypeInfo type = make_named("System.Web.UI.WebControls", name);
    type.set(Trait::kCaseCollidingFields);
    type.fields.push_back({"Text", xsd::Builtin::kString, false, false});
    type.fields.push_back({"text", xsd::Builtin::kAnyType, false, false});
    types.push_back(std::move(type));
  }

  // --- Deployable population. ---
  for (std::size_t i = 0; i < spec.plain_types; ++i) {
    types.push_back(make_type(pool));
  }
  const auto add_dataset = [&](std::size_t count, Trait extra, bool has_extra) {
    for (std::size_t i = 0; i < count; ++i) {
      TypeInfo type = make_type(pool, "DataSet");
      type.set(Trait::kDataSetSchema);
      if (has_extra) type.set(extra);
      types.push_back(std::move(type));
    }
  };
  add_dataset(spec.dataset_plain, Trait::kDataSetSchema, false);
  add_dataset(spec.dataset_duplicated, Trait::kDataSetDuplicated, true);
  add_dataset(spec.dataset_nested, Trait::kDataSetNested, true);
  add_dataset(spec.dataset_array, Trait::kDataSetArray, true);
  for (std::size_t i = 0; i < spec.encoded_binding; ++i) {
    TypeInfo type = make_type(pool, "Message");
    type.set(Trait::kSoapEncodedBinding);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.missing_soap_action; ++i) {
    TypeInfo type = make_type(pool, "Header");
    type.set(Trait::kMissingSoapAction);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.deep_nesting_clean; ++i) {
    TypeInfo type = make_type(pool, "View");
    type.set(Trait::kDeepNesting);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.deep_nesting_pathological; ++i) {
    TypeInfo type = make_type(pool, "Grid");
    type.set(Trait::kDeepNesting);
    type.set(Trait::kCompilerPathological);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.generator_crash; ++i) {
    TypeInfo type = make_type(pool, "Surrogate");
    type.set(Trait::kGeneratorCrash);
    types.push_back(std::move(type));
  }

  // --- Population WCF cannot map. ---
  for (std::size_t i = 0; i < spec.non_serializable; ++i) {
    TypeInfo type = make_type(pool);
    type.traits = static_cast<std::uint64_t>(Trait::kDefaultCtor);  // not serializable
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.no_default_ctor; ++i) {
    TypeInfo type = make_type(pool);
    type.traits = static_cast<std::uint64_t>(Trait::kSerializable);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.generic_types; ++i) {
    TypeInfo type = make_type(pool);
    type.set(Trait::kGenericType);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.abstract_classes; ++i) {
    TypeInfo type = make_type(pool);
    type.set(Trait::kAbstract);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.interfaces; ++i) {
    TypeInfo type = make_type(pool, "Provider");
    type.traits = 0;
    type.set(Trait::kInterface);
    types.push_back(std::move(type));
  }

  return TypeCatalog{".NET Framework 4", std::move(types)};
}

}  // namespace wsx::catalog
