// Tests for structured (typed) payload marshalling and the binder's
// field-level schema validation during execution.
#include <gtest/gtest.h>

#include "catalog/java_catalog.hpp"
#include "frameworks/registry.hpp"
#include "soap/message.hpp"

namespace wsx::frameworks {
namespace {

/// A deployed service over a plain bean whose first field is typed.
struct Fixture {
  DeployedService service;
  const catalog::TypeInfo* type = nullptr;
  std::unique_ptr<ServerFramework> server;
};

Fixture make_fixture() {
  static const catalog::TypeCatalog catalog = catalog::make_java_catalog();
  Fixture fixture;
  fixture.server = make_server("Metro 2.3");
  for (const catalog::TypeInfo& candidate : catalog.types()) {
    const bool plain =
        candidate.traits == (static_cast<std::uint64_t>(catalog::Trait::kDefaultCtor) |
                             static_cast<std::uint64_t>(catalog::Trait::kSerializable));
    if (!plain) continue;
    // Need at least one non-string field so type validation can fail.
    bool has_typed_field = false;
    for (const catalog::FieldSpec& field : candidate.fields) {
      if (field.type == xsd::Builtin::kInt || field.type == xsd::Builtin::kBoolean) {
        has_typed_field = true;
      }
    }
    if (!has_typed_field) continue;
    fixture.type = &candidate;
    fixture.service = std::move(fixture.server->deploy(ServiceSpec{&candidate}).value());
    return fixture;
  }
  ADD_FAILURE() << "no suitable bean found";
  return fixture;
}

std::vector<soap::Argument> valid_fields(const catalog::TypeInfo& type) {
  std::vector<soap::Argument> fields;
  for (const catalog::FieldSpec& field : type.fields) {
    switch (field.type) {
      case xsd::Builtin::kInt:
      case xsd::Builtin::kLong:
      case xsd::Builtin::kShort:
      case xsd::Builtin::kByte:
      case xsd::Builtin::kDecimal:
        fields.push_back({field.name, "42"});
        break;
      case xsd::Builtin::kBoolean:
        fields.push_back({field.name, "true"});
        break;
      case xsd::Builtin::kDouble:
      case xsd::Builtin::kFloat:
        fields.push_back({field.name, "2.5"});
        break;
      case xsd::Builtin::kDateTime:
        fields.push_back({field.name, "2014-06-23T09:30:00Z"});
        break;
      default:
        fields.push_back({field.name, "text"});
    }
  }
  return fields;
}

TEST(StructuredPayload, BuilderNestsFieldsUnderArg0) {
  const Fixture fixture = make_fixture();
  Result<soap::Envelope> request = soap::build_structured_request(
      fixture.service.wsdl, "echo", valid_fields(*fixture.type));
  ASSERT_TRUE(request.ok());
  const xml::Element* argument = request->body().child("arg0");
  ASSERT_NE(argument, nullptr);
  EXPECT_EQ(argument->child_elements().size(), fixture.type->fields.size());
}

TEST(StructuredPayload, ValidBeanRoundTrips) {
  const Fixture fixture = make_fixture();
  Result<soap::Envelope> request = soap::build_structured_request(
      fixture.service.wsdl, "echo", valid_fields(*fixture.type));
  ASSERT_TRUE(request.ok());
  const soap::Envelope response =
      fixture.server->handle_request(fixture.service, *request);
  EXPECT_FALSE(response.is_fault())
      << (response.is_fault() ? response.fault().fault_string : "");
}

TEST(StructuredPayload, UnknownFieldFaults) {
  const Fixture fixture = make_fixture();
  std::vector<soap::Argument> fields = valid_fields(*fixture.type);
  fields.push_back({"notAField", "x"});
  Result<soap::Envelope> request =
      soap::build_structured_request(fixture.service.wsdl, "echo", fields);
  const soap::Envelope response =
      fixture.server->handle_request(fixture.service, *request);
  ASSERT_TRUE(response.is_fault());
  EXPECT_NE(response.fault().fault_string.find("unexpected element"), std::string::npos);
}

TEST(StructuredPayload, TypeMismatchFaults) {
  const Fixture fixture = make_fixture();
  std::vector<soap::Argument> fields;
  for (const catalog::FieldSpec& field : fixture.type->fields) {
    if (field.type == xsd::Builtin::kInt || field.type == xsd::Builtin::kBoolean) {
      fields.push_back({field.name, "certainly-not-a-number"});
      break;
    }
  }
  ASSERT_FALSE(fields.empty());
  Result<soap::Envelope> request =
      soap::build_structured_request(fixture.service.wsdl, "echo", fields);
  const soap::Envelope response =
      fixture.server->handle_request(fixture.service, *request);
  ASSERT_TRUE(response.is_fault());
  EXPECT_NE(response.fault().fault_string.find("unmarshalling error"), std::string::npos);
}

TEST(StructuredPayload, FlatStringPayloadStillWorks) {
  // The untyped path (plain text under arg0) remains valid.
  const Fixture fixture = make_fixture();
  Result<soap::Envelope> request =
      soap::build_request(fixture.service.wsdl, "echo", {{"arg0", "plain"}});
  const soap::Envelope response =
      fixture.server->handle_request(fixture.service, *request);
  ASSERT_FALSE(response.is_fault());
  EXPECT_EQ(soap::response_value(response).value(), "plain");
}

// A payload may repeat arg0: the echo is the last arg0's text, and the
// field check reads only the first arg0.
TEST(StructuredPayload, RepeatedArg0EchoesTheLastAndChecksTheFirst) {
  const Fixture fixture = make_fixture();
  const auto respond = [&](const soap::Envelope& request) {
    return fixture.server->handle_request(fixture.service, request);
  };

  Result<soap::Envelope> plain = soap::build_request(fixture.service.wsdl, "echo",
                                                     {{"arg0", "first"}, {"arg0", "second"}});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(soap::response_value(respond(*plain)).value(), "second");

  std::vector<soap::Argument> bad_fields = valid_fields(*fixture.type);
  bad_fields.push_back({"notAField", "x"});

  Result<soap::Envelope> bad_first =
      soap::build_structured_request(fixture.service.wsdl, "echo", bad_fields);
  ASSERT_TRUE(bad_first.ok());
  bad_first->body().add_element("m:arg0").add_text("plain");
  const soap::Envelope checked = respond(*bad_first);
  ASSERT_TRUE(checked.is_fault());
  EXPECT_NE(checked.fault().fault_string.find("unexpected element"), std::string::npos);

  Result<soap::Envelope> bad_second =
      soap::build_structured_request(fixture.service.wsdl, "echo", bad_fields);
  ASSERT_TRUE(bad_second.ok());
  xml::Element plain_first{"m:arg0"};
  plain_first.add_text("plain");
  bad_second->body().prepend_child(std::move(plain_first));
  // The bean arg0 holds only elements, so its text, the echo, is empty.
  EXPECT_EQ(soap::response_value(respond(*bad_second)).value(), "");
}

// The field check reads the first arg0 type that resolves, as the request
// generator does: a later schema's wrapper whose arg0 type does not
// resolve must not switch the check off.
TEST(StructuredPayload, UnresolvedLaterArg0KeepsTheResolvedType) {
  const Fixture fixture = make_fixture();
  DeployedService service = fixture.service;
  xsd::Schema other;
  other.target_namespace = "urn:other";
  xsd::ElementDecl wrapper;
  wrapper.name = "echo";
  xsd::ComplexType wrapper_type;
  xsd::ElementDecl arg0;
  arg0.name = "arg0";
  arg0.type = xml::QName{"urn:other", "Missing"};
  wrapper_type.particles.emplace_back(std::move(arg0));
  wrapper.inline_type = Box<xsd::ComplexType>{std::move(wrapper_type)};
  other.elements.push_back(std::move(wrapper));
  service.wsdl.schemas.push_back(std::move(other));

  const catalog::FieldSpec* typed = nullptr;
  for (const catalog::FieldSpec& field : fixture.type->fields) {
    if (field.type == xsd::Builtin::kInt || field.type == xsd::Builtin::kBoolean) {
      typed = &field;
      break;
    }
  }
  ASSERT_NE(typed, nullptr);
  const std::string valid = typed->type == xsd::Builtin::kInt ? "42" : "true";

  Result<soap::Envelope> good =
      soap::build_structured_request(service.wsdl, "echo", {{typed->name, valid}});
  ASSERT_TRUE(good.ok());
  const soap::Envelope echoed = fixture.server->handle_request(service, *good);
  ASSERT_FALSE(echoed.is_fault()) << echoed.fault().fault_string;
  EXPECT_EQ(soap::response_value(echoed).value(), valid);

  Result<soap::Envelope> bad = soap::build_structured_request(
      service.wsdl, "echo", {{typed->name, "certainly-not-a-number"}});
  ASSERT_TRUE(bad.ok());
  const soap::Envelope refused = fixture.server->handle_request(service, *bad);
  ASSERT_TRUE(refused.is_fault());
  EXPECT_NE(refused.fault().fault_string.find("unmarshalling error"), std::string::npos);
}

}  // namespace
}  // namespace wsx::frameworks
