// reader.hpp — builds a Schema model straight off the pull token stream.
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "xml/pull.hpp"
#include "xml/query.hpp"
#include "xsd/model.hpp"

namespace wsx::xsd {

/// Reads the schema element whose kStartElement token `tok` just returned
/// (its name is not checked), consuming the stream through its end tag.
/// QName-valued attributes (type=, ref=, base=) resolve against `scope`,
/// which must hold the declarations in force at the schema element's
/// parent; the reader pushes and pops its own frames. QNames whose prefix is
/// undeclared are recorded with an empty namespace URI and the original
/// prefix — the resolver reports them as unresolved rather than failing the
/// parse, which is exactly how the studied client tools encounter them.
///
/// Construct rules: for each construct only the first child of a kind is
/// read (the first sequence, complexContent, extension, inline complexType,
/// restriction and facet); later ones are skipped unread, as are unknown
/// constructs. A complexType takes its content from its first
/// complexContent's first extension when there is one, else from its own
/// children, so content read before that choice can be made is held until
/// the complexType ends. Errors: the tokenizer's xml.* error when the markup
/// is malformed (the stream is then dead), else the first xsd.* error of
/// the content read, with the schema consumed through its end tag.
Result<Schema> read_schema(xml::pull::Tokenizer& tok, const xml::pull::Token& start,
                           xml::NamespaceScope& scope);

/// Parses a standalone schema document; its root must be named schema
/// (xsd.not-a-schema otherwise). An xml.* error anywhere in the document
/// takes precedence over an xsd.* one.
Result<Schema> parse(std::string_view text);

}  // namespace wsx::xsd
