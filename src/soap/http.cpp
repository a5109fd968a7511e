#include "soap/http.hpp"

#include "common/strings.hpp"

namespace wsx::soap {
namespace {

std::optional<std::string_view> find_header(const std::vector<HttpHeader>& headers,
                                            std::string_view name) {
  for (const HttpHeader& header : headers) {
    if (iequals(header.name, name)) return header.value;
  }
  return std::nullopt;
}

// Upserts the FIRST matching entry; later duplicates stay untouched so a
// duplicated header keeps its wire shape (lookup is first-wins anyway).
void upsert_header(std::vector<HttpHeader>& headers, std::string name, std::string value) {
  for (HttpHeader& header : headers) {
    if (iequals(header.name, name)) {
      header.value = std::move(value);
      return;
    }
  }
  headers.push_back({std::move(name), std::move(value)});
}

std::size_t erase_headers(std::vector<HttpHeader>& headers, std::string_view name) {
  return std::erase_if(headers, [name](const HttpHeader& header) {
    return iequals(header.name, name);
  });
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

void HttpRequest::set_header(std::string name, std::string value) {
  upsert_header(headers, std::move(name), std::move(value));
}

void HttpRequest::add_header(std::string name, std::string value) {
  headers.push_back({std::move(name), std::move(value)});
}

std::size_t HttpRequest::remove_header(std::string_view name) {
  return erase_headers(headers, name);
}

std::optional<std::string_view> HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

void HttpResponse::set_header(std::string name, std::string value) {
  upsert_header(headers, std::move(name), std::move(value));
}

void HttpResponse::add_header(std::string name, std::string value) {
  headers.push_back({std::move(name), std::move(value)});
}

std::size_t HttpResponse::remove_header(std::string_view name) {
  return erase_headers(headers, name);
}

HttpRequest make_soap_request(std::string url, std::string soap_action,
                              std::string envelope_text) {
  HttpRequest request;
  request.url = std::move(url);
  request.body = std::move(envelope_text);
  request.set_header("Content-Type", "text/xml; charset=utf-8");
  // SOAP 1.1 requires the SOAPAction header; its value is quoted.
  request.set_header("SOAPAction", "\"" + soap_action + "\"");
  return request;
}

HttpResponse make_soap_response(std::string envelope_text, bool is_fault) {
  HttpResponse response;
  response.status = is_fault ? 500 : 200;
  response.body = std::move(envelope_text);
  response.set_header("Content-Type", "text/xml; charset=utf-8");
  return response;
}

}  // namespace wsx::soap
