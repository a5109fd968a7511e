// shared_description.hpp — parse-once service description shared by every
// consumer of a deployed service.
//
// Each campaign task builds exactly one SharedDescription per deployed
// service, and the WS-I check, every client tool and every echo invocation
// read that one parse of the served bytes. It hands out immutable views
// behind a shared_ptr: the client-view Definitions + feature vector (parsed
// from the *served text*, preserving the wire serialize/parse boundary; the
// client tools and their runtime marshallers both read it), and the WS-I
// Basic Profile verdict (computed over the server model, as the study's
// description step always has). Copies are cheap handle copies; all state
// is const after construction, so one description may be read from any
// number of campaign worker threads.
//
// Fuzz/chaos paths that mutate raw WSDL bytes still enter through
// from_text(), which parses the mutated text and skips the WS-I verdict —
// there is no server model for a byte-level mutant.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "frameworks/features.hpp"
#include "wsdl/model.hpp"
#include "wsi/profile.hpp"

namespace wsx::frameworks {

struct DeployedService;

class SharedDescription {
 public:
  /// Parses `wsdl_text` and computes the client-view feature vector. No
  /// WS-I verdict (there is no server model).
  static SharedDescription from_text(std::string_view wsdl_text);

  /// Full pipeline for a deployed service: parses the served text for the
  /// client view and (when `with_wsi`) runs the WS-I Basic Profile check
  /// over the server model.
  static SharedDescription from_deployed(const DeployedService& service, bool with_wsi = true);

  /// True when the served text parsed as a WSDL description.
  bool parsed_ok() const { return !state_->parse_error.has_value(); }

  /// Precondition: !parsed_ok().
  const Error& parse_error() const { return *state_->parse_error; }

  /// Client-view description, parsed from the served text.
  /// Precondition: parsed_ok().
  const wsdl::Definitions& definitions() const { return state_->defs; }

  /// Client-view feature vector. Precondition: parsed_ok().
  const WsdlFeatures& features() const { return state_->features; }

  /// WS-I verdict over the server model, or nullptr when not computed.
  const wsi::ComplianceReport* wsi_report() const {
    return state_->wsi ? &*state_->wsi : nullptr;
  }

  /// The exact served bytes this description was parsed from.
  std::string_view wsdl_text() const { return state_->wsdl_text; }

 private:
  struct State {
    std::string wsdl_text;
    std::optional<Error> parse_error;
    wsdl::Definitions defs;      ///< valid iff !parse_error
    WsdlFeatures features{};     ///< valid iff !parse_error
    std::optional<wsi::ComplianceReport> wsi;
  };

  explicit SharedDescription(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

}  // namespace wsx::frameworks
