#include "serve/protocol.hpp"

#include "common/json.hpp"

namespace wsx::serve {

namespace {

Error fail(std::string code, std::string message) {
  return Error{"serve." + std::move(code), std::move(message)};
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kVerdict:
      return "verdict";
    case QueryKind::kExplain:
      return "explain";
    case QueryKind::kSubstitute:
      return "substitute";
    case QueryKind::kLint:
      return "lint";
    case QueryKind::kStats:
      return "stats";
  }
  return "unknown";
}

bool query_kind_from_string(std::string_view text, QueryKind& out) {
  if (text == "verdict") {
    out = QueryKind::kVerdict;
  } else if (text == "explain") {
    out = QueryKind::kExplain;
  } else if (text == "substitute") {
    out = QueryKind::kSubstitute;
  } else if (text == "lint") {
    out = QueryKind::kLint;
  } else if (text == "stats") {
    out = QueryKind::kStats;
  } else {
    return false;
  }
  return true;
}

const char* to_string(StatusCode status) {
  switch (status) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kShedded:
      return "shedded";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kCircuitOpen:
      return "circuit-open";
    case StatusCode::kQuarantined:
      return "quarantined";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kBadRequest:
      return "bad-request";
  }
  return "unknown";
}

bool status_code_from_string(std::string_view text, StatusCode& out) {
  if (text == "ok") {
    out = StatusCode::kOk;
  } else if (text == "shedded") {
    out = StatusCode::kShedded;
  } else if (text == "deadline-exceeded") {
    out = StatusCode::kDeadlineExceeded;
  } else if (text == "circuit-open") {
    out = StatusCode::kCircuitOpen;
  } else if (text == "quarantined") {
    out = StatusCode::kQuarantined;
  } else if (text == "not-found") {
    out = StatusCode::kNotFound;
  } else if (text == "bad-request") {
    out = StatusCode::kBadRequest;
  } else {
    return false;
  }
  return true;
}

std::string encode_request(const Request& request) {
  json::ObjectWriter writer;
  writer.field("query", to_string(request.kind));
  if (!request.client.empty()) writer.field("client", request.client);
  if (!request.service.empty()) writer.field("service", request.service);
  if (request.kind == QueryKind::kSubstitute) writer.field("top", request.top);
  if (request.kind == QueryKind::kLint) writer.field("body", request.body);
  return writer.str();
}

Result<Request> decode_request(std::string_view payload) {
  Result<json::Value> parsed = json::parse(payload);
  if (!parsed.ok()) return fail("bad-request", parsed.error().message);
  const json::Value& object = parsed.value();
  if (!object.is_object()) return fail("bad-request", "payload is not an object");

  Request request;
  const json::Value* query = object.find("query");
  if (query == nullptr || !query->is_string()) {
    return fail("bad-request", "missing string field 'query'");
  }
  if (!query_kind_from_string(query->as_string(), request.kind)) {
    return fail("bad-request", "unknown query kind '" + query->as_string() + "'");
  }
  if (const json::Value* client = object.find("client"); client != nullptr) {
    if (!client->is_string()) return fail("bad-request", "'client' must be a string");
    request.client = client->as_string();
  }
  if (const json::Value* service = object.find("service"); service != nullptr) {
    if (!service->is_string()) return fail("bad-request", "'service' must be a string");
    request.service = service->as_string();
  }
  if (const json::Value* top = object.find("top"); top != nullptr) {
    // Exact integers only: a double outside size_t's range has no
    // conversion, and a fraction is not a count.
    if (!top->is_integer() || top->is_negative() || top->magnitude() == 0) {
      return fail("bad-request", "'top' must be a positive integer");
    }
    request.top = static_cast<std::size_t>(top->magnitude());
  }
  if (const json::Value* body = object.find("body"); body != nullptr) {
    if (!body->is_string()) return fail("bad-request", "'body' must be a string");
    request.body = body->as_string();
  }
  return request;
}

std::string encode_response(const Response& response) {
  json::ObjectWriter writer;
  writer.field("status", to_string(response.status));
  if (!response.body.empty()) writer.raw_field("body", response.body);
  if (!response.reason.empty()) writer.field("reason", response.reason);
  writer.field("latency_ms", static_cast<std::size_t>(response.latency_ms));
  return writer.str();
}

Result<Response> decode_response(std::string_view payload) {
  Result<json::Value> parsed = json::parse(payload);
  if (!parsed.ok()) return fail("bad-response", parsed.error().message);
  const json::Value& object = parsed.value();
  if (!object.is_object()) return fail("bad-response", "payload is not an object");

  Response response;
  const json::Value* status = object.find("status");
  if (status == nullptr || !status->is_string()) {
    return fail("bad-response", "missing string field 'status'");
  }
  if (!status_code_from_string(status->as_string(), response.status)) {
    return fail("bad-response", "unknown status '" + status->as_string() + "'");
  }
  if (const json::Value* body = object.find("body"); body != nullptr) {
    response.body = json::to_text(*body);
  }
  if (const json::Value* reason = object.find("reason"); reason != nullptr) {
    if (!reason->is_string()) return fail("bad-response", "'reason' must be a string");
    response.reason = reason->as_string();
  }
  if (const json::Value* latency = object.find("latency_ms"); latency != nullptr) {
    if (!latency->is_integer() || latency->is_negative()) {
      return fail("bad-response", "'latency_ms' must be a non-negative integer");
    }
    response.latency_ms = latency->magnitude();
  }
  return response;
}

std::string frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  out += '#';
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

Result<bool> FrameReader::next(std::string& payload) {
  // Reclaim consumed prefix lazily once it dominates the buffer, so a
  // long-lived connection does not grow without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::string_view rest = std::string_view(buffer_).substr(consumed_);
  if (rest.empty()) return false;
  if (rest[0] != '#') return fail("bad-frame", "frame header must start with '#'");
  const std::size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    if (rest.size() > 32) return fail("bad-frame", "unterminated frame header");
    return false;  // header still arriving
  }
  const std::string_view digits = rest.substr(1, newline - 1);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string_view::npos) {
    return fail("bad-frame", "frame length is not a decimal number");
  }
  std::size_t length = 0;
  for (const char c : digits) {
    length = length * 10 + static_cast<std::size_t>(c - '0');
    if (length > kMaxFrameBytes) return fail("bad-frame", "frame length too large");
  }
  // Complete frame = header line + payload + trailing '\n'.
  if (rest.size() < newline + 1 + length + 1) return false;
  if (rest[newline + 1 + length] != '\n') {
    return fail("bad-frame", "frame payload not terminated by newline");
  }
  payload.assign(rest.substr(newline + 1, length));
  consumed_ += newline + 1 + length + 1;
  return true;
}

}  // namespace wsx::serve
