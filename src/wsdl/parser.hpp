// parser.hpp — builds a Definitions model from WSDL text.
//
// Every client artifact generator in the study consumes WSDL through this
// parser, so a served description goes through a full serialize → parse
// round trip before any tool sees it — exactly like the wire. The model is
// read straight off the pull token stream; a DOM subtree is built only for
// each vendor extension element the model keeps verbatim.
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "wsdl/model.hpp"

namespace wsx::wsdl {

/// Parses WSDL text. The root must be named definitions (wsdl.not-a-wsdl
/// otherwise); a direct child is read as a WSDL construct when its prefix,
/// resolved with the root's declarations, names the WSDL namespace, and is
/// kept as an extension element otherwise. Within a construct only the
/// first child of a kind is read (the first soap:binding, input, output,
/// soap:operation, soap:body and soap:address), matched by local name.
/// Errors: an xml.* error anywhere in the document takes precedence over
/// a wsdl.* / xsd.* one; of those, the first in reading order is reported
/// (see xsd::read_schema for the one place that differs from document
/// order).
Result<Definitions> parse(std::string_view text);

}  // namespace wsx::wsdl
