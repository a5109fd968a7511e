#include "catalog/java_catalog.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "catalog/name_pool.hpp"

namespace wsx::catalog {
namespace {

constexpr std::array kPackages = {
    "java.lang",        "java.util",          "java.io",         "java.net",
    "java.text",        "java.awt",           "java.awt.event",  "java.awt.geom",
    "javax.swing",      "javax.swing.text",   "javax.xml.parsers", "javax.xml.ws",
    "java.util.concurrent", "java.security",  "java.sql",        "javax.naming",
    "java.nio",         "java.nio.channels",  "java.rmi",        "javax.sound.midi",
    "javax.imageio",    "java.beans",         "javax.crypto",    "java.util.zip",
};

std::string pick_package(Rng& rng) { return kPackages[rng.below(kPackages.size())]; }

/// 1–4 plain serializable fields, with room for `more_fields` the caller
/// adds.
void add_plain_fields(NamePool& pool, TypeInfo& type, std::size_t more_fields) {
  const std::size_t count = 1 + pool.rng().below(4);
  // The catalog lives for the whole run: no spare capacity.
  type.fields.reserve(count + more_fields);
  for (std::size_t i = 0; i < count; ++i) {
    FieldSpec field;
    field.name = pool.next_field_name() + (i == 0 ? "" : std::to_string(i));
    field.type = pool.next_field_type();
    type.fields.push_back(std::move(field));
  }
}

TypeInfo make_bean(NamePool& pool, const std::string& suffix = "", std::size_t more_fields = 0) {
  TypeInfo type;
  type.language = SourceLanguage::kJava;
  type.package = pick_package(pool.rng());
  type.name = pool.next_class_name(suffix);
  type.set(Trait::kDefaultCtor);
  type.set(Trait::kSerializable);
  add_plain_fields(pool, type, more_fields);
  return type;
}

void add_raw_collection_field(TypeInfo& type) {
  // A raw java.util.List field. It serializes as a plain repeated string
  // element (rawness is invisible in the WSDL — it only surfaces in the
  // binder's deployability rules and in generated artifact code).
  FieldSpec raw;
  raw.name = "entries";
  raw.type = xsd::Builtin::kString;
  raw.is_array = true;
  raw.raw_collection = true;
  type.fields.push_back(std::move(raw));
  type.set(Trait::kRawGenericApi);
}

}  // namespace

JavaCatalogSpec scaled(JavaCatalogSpec spec, std::size_t percent) {
  for (std::size_t* quota :
       {&spec.plain_beans, &spec.throwable_clean, &spec.throwable_raw, &spec.raw_generic_beans,
        &spec.anytype_array_beans, &spec.no_default_ctor, &spec.abstract_classes,
        &spec.interfaces, &spec.generic_types}) {
    *quota = std::max<std::size_t>(1, *quota * percent / 100);
  }
  return spec;
}

TypeCatalog make_java_catalog(const JavaCatalogSpec& spec) {
  const std::size_t total = 4 + std::max<std::size_t>(spec.async_interfaces, 2) +
                            spec.plain_beans + spec.throwable_clean + spec.throwable_raw +
                            spec.raw_generic_beans + spec.anytype_array_beans +
                            spec.no_default_ctor + spec.abstract_classes + spec.interfaces +
                            spec.generic_types;
  NamePool pool{spec.seed, total};
  std::vector<TypeInfo> types;
  types.reserve(total);

  // --- Named special classes (traits match the paper's findings). ---
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "javax.xml.ws.wsaddressing";
    type.name = "W3CEndpointReference";
    type.set(Trait::kDefaultCtor);
    type.set(Trait::kSerializable);
    type.set(Trait::kWsaEndpointReference);
    type.fields.push_back({"address", xsd::Builtin::kAnyUri, false, false});
    types.push_back(std::move(type));
  }
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "java.text";
    type.name = "SimpleDateFormat";
    type.set(Trait::kDefaultCtor);
    type.set(Trait::kSerializable);
    type.set(Trait::kLegacyDateFormat);
    type.fields.push_back({"pattern", xsd::Builtin::kString, false, false});
    types.push_back(std::move(type));
  }
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "javax.xml.datatype";
    type.name = "XMLGregorianCalendar";
    type.set(Trait::kDefaultCtor);
    type.set(Trait::kSerializable);
    type.set(Trait::kXmlGregorianCalendar);
    type.fields.push_back({"gregorian", xsd::Builtin::kDateTime, false, false});
    types.push_back(std::move(type));
  }
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "org.omg.CORBA";
    type.name = "NameValuePair";
    type.set(Trait::kDefaultCtor);
    type.set(Trait::kSerializable);
    type.set(Trait::kCaseCollidingFields);
    // Fields differing only in case: C# artifacts compile, VB artifacts
    // collide.
    type.fields.push_back({"Value", xsd::Builtin::kString, false, false});
    type.fields.push_back({"value", xsd::Builtin::kAnyType, false, false});
    types.push_back(std::move(type));
  }

  // --- JAX-WS async interfaces (Metro refuses, JBossWS publishes without
  //     operations). ---
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "java.util.concurrent";
    type.name = "Future";
    type.set(Trait::kInterface);
    type.set(Trait::kAsyncApi);
    types.push_back(std::move(type));
  }
  {
    TypeInfo type;
    type.language = SourceLanguage::kJava;
    type.package = "javax.xml.ws";
    type.name = "Response";
    type.set(Trait::kInterface);
    type.set(Trait::kAsyncApi);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 2; i < spec.async_interfaces; ++i) {
    TypeInfo type = make_bean(pool, "Task");
    type.traits = 0;
    type.set(Trait::kInterface);
    type.set(Trait::kAsyncApi);
    types.push_back(std::move(type));
  }

  // --- Deployable population. ---
  for (std::size_t i = 0; i < spec.plain_beans; ++i) {
    types.push_back(make_bean(pool));
  }
  for (std::size_t i = 0; i < spec.throwable_clean; ++i) {
    TypeInfo type = make_bean(pool, i % 7 == 0 ? "Error" : "Exception", 1);
    type.set(Trait::kThrowableDerived);
    type.fields.insert(type.fields.begin(), {"message", xsd::Builtin::kString, false, false});
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.throwable_raw; ++i) {
    TypeInfo type = make_bean(pool, "Exception", 2);
    type.set(Trait::kThrowableDerived);
    type.fields.insert(type.fields.begin(), {"message", xsd::Builtin::kString, false, false});
    add_raw_collection_field(type);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.raw_generic_beans; ++i) {
    TypeInfo type = make_bean(pool, "", 1);
    add_raw_collection_field(type);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.anytype_array_beans; ++i) {
    TypeInfo type = make_bean(pool, "", 1);
    FieldSpec field;
    field.name = "elements";
    field.type = xsd::Builtin::kAnyType;
    field.is_array = true;
    type.fields.push_back(std::move(field));
    type.set(Trait::kAnyTypeArrayField);
    types.push_back(std::move(type));
  }

  // --- Population that no binder can map. ---
  for (std::size_t i = 0; i < spec.no_default_ctor; ++i) {
    TypeInfo type = make_bean(pool);
    type.traits = static_cast<std::uint64_t>(Trait::kSerializable);  // ctor bit cleared
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.abstract_classes; ++i) {
    TypeInfo type = make_bean(pool);
    type.set(Trait::kAbstract);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.interfaces; ++i) {
    TypeInfo type = make_bean(pool, "Listener");
    type.traits = 0;
    type.set(Trait::kInterface);
    types.push_back(std::move(type));
  }
  for (std::size_t i = 0; i < spec.generic_types; ++i) {
    TypeInfo type = make_bean(pool);
    type.set(Trait::kGenericType);
    types.push_back(std::move(type));
  }

  return TypeCatalog{"Java SE 7", std::move(types)};
}

}  // namespace wsx::catalog
