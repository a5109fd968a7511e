// wsdl_builder.hpp — shared construction of echo-service descriptions.
//
// All three server models use this builder; each passes its own quirk
// options, so the same native type produces genuinely different WSDL on
// different stacks — which is why a client can fail against one server's
// description of a class and succeed against another's (observed for
// SimpleDateFormat and W3CEndpointReference in the study).
#pragma once

#include <string>

#include "frameworks/service.hpp"
#include "wsdl/model.hpp"

namespace wsx::frameworks {

struct WsdlBuilderOptions {
  std::string namespace_root;  ///< e.g. "http://metro.example.org/"
  std::string endpoint_root;   ///< e.g. "http://localhost:8080/metro/"

  /// How the stack serializes javax.xml.ws.wsaddressing.W3CEndpointReference.
  enum class WsaStyle {
    kNone,
    kForeignTypeRef,  ///< Metro: element type= into the (unimported) WSA namespace
    kForeignAttrRef,  ///< JBossWS: attribute ref= into the WSA namespace
  };
  WsaStyle wsa_style = WsaStyle::kNone;

  /// How the stack serializes java.text.SimpleDateFormat.
  enum class DateFormatStyle {
    kNone,
    kUnresolvedAttrGroup,   ///< Metro: attributeGroup ref="xml:specialAttrs",
                            ///  xml namespace imported without a location
    kDualTypeDeclaration,   ///< JBossWS: element with type= AND inline type
  };
  DateFormatStyle date_format_style = DateFormatStyle::kNone;

  /// WCF: System.Data types serialize through the DataSet idiom
  /// (ref="s:schema" / ref="s:lang" / xs:any).
  bool dataset_idiom = false;

  /// JBossWS: async API interfaces deploy, but the binder silently drops
  /// the unmappable operation, publishing a description with no operations.
  bool async_yields_zero_operations = false;

  /// Java stacks attach a JAX-WS customization extension element that some
  /// foreign tools flag as unknown.
  bool attach_jaxws_extension = false;

  /// Java stacks declare a wsdl:fault for services whose parameter type is
  /// Exception/Error-derived (the JAX-WS mapping of checked exceptions).
  bool declare_faults_for_throwables = false;

  /// Binding style. All studied stacks emit document/literal wrapped; the
  /// rpc/literal variant (type= parts, no wrapper elements) exists for
  /// substrate completeness and the custom-framework extension path.
  wsdl::SoapStyle binding_style = wsdl::SoapStyle::kDocument;
};

/// Builds the complete echo-service description for `spec`. The returned
/// model still has to be serialized by the caller (servers use their own
/// prefix conventions). Precondition: spec.type != nullptr.
wsdl::Definitions build_echo_wsdl(const ServiceSpec& spec, const WsdlBuilderOptions& options);

}  // namespace wsx::frameworks
