// writer.hpp — serializes a Definitions model to a WSDL 1.1 XML document.
#pragma once

#include <string>

#include "wsdl/model.hpp"
#include "xsd/writer.hpp"

namespace wsx::wsdl {

struct WsdlWriteOptions {
  std::string wsdl_prefix = "wsdl";
  std::string soap_prefix = "soap";
  std::string target_prefix = "tns";
  /// Passed through to the schema writer; WCF sets this to "s".
  std::string schema_prefix = "xs";
};

/// The full document text, written straight from the model (extension
/// elements, which the model keeps as DOM subtrees, are walked in place).
std::string to_string(const Definitions& definitions, const WsdlWriteOptions& options = {});

}  // namespace wsx::wsdl
