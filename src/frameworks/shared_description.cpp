#include "frameworks/shared_description.hpp"

#include "frameworks/server.hpp"
#include "wsdl/parser.hpp"

namespace wsx::frameworks {

static void fill_from_text(std::string_view wsdl_text, wsdl::Definitions& defs,
                           WsdlFeatures& features, std::optional<Error>& parse_error) {
  Result<wsdl::Definitions> parsed = wsdl::parse(wsdl_text);
  if (!parsed.ok()) {
    parse_error = parsed.error();
    return;
  }
  defs = std::move(parsed.value());
  features = analyze(defs);
}

SharedDescription SharedDescription::from_text(std::string_view wsdl_text) {
  auto state = std::make_shared<State>();
  state->wsdl_text = std::string(wsdl_text);
  fill_from_text(state->wsdl_text, state->defs, state->features, state->parse_error);
  return SharedDescription{std::move(state)};
}

SharedDescription SharedDescription::from_deployed(const DeployedService& service,
                                                   bool with_wsi) {
  auto state = std::make_shared<State>();
  state->wsdl_text = service.wsdl_text;
  fill_from_text(state->wsdl_text, state->defs, state->features, state->parse_error);
  // WS-I runs over the server *model*, not the re-parsed text: that is what
  // the deployment side of the study always did, and the distinction
  // matters for descriptions whose served text is unparsable.
  if (with_wsi) state->wsi = wsi::check(service.wsdl);
  return SharedDescription{std::move(state)};
}

}  // namespace wsx::frameworks
