#include "gcsapi/rest_codec.h"

#include <charconv>
#include <cstring>

#include "common/copy_meter.h"

namespace hyrd::gcs {

namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string percent_escape(const std::string& s) {
  static constexpr char kDigits[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    const bool safe = std::isalnum(c) || c == '-' || c == '_' || c == '.' ||
                      c == '~';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kDigits[c >> 4]);
      out.push_back(kDigits[c & 0xF]);
    }
  }
  return out;
}

common::Result<std::string> percent_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) {
      return common::invalid_argument("truncated percent escape");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) {
      return common::invalid_argument("bad percent escape");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

}  // namespace

RestRequest encode_op(cloud::OpKind op, const cloud::ObjectKey& key,
                      common::ByteSpan body) {
  RestRequest req;
  const std::string container = percent_escape(key.container);
  const std::string name = percent_escape(key.name);
  switch (op) {
    case cloud::OpKind::kCreate:
      req.method = "PUT";
      req.path = "/" + container;
      break;
    case cloud::OpKind::kPut:
      req.method = "PUT";
      req.path = "/" + container + "/" + name;
      common::count_copied_bytes(body.size());
      req.body.assign(body.begin(), body.end());
      break;
    case cloud::OpKind::kGet:
      req.method = "GET";
      req.path = "/" + container + "/" + name;
      break;
    case cloud::OpKind::kRemove:
      req.method = "DELETE";
      req.path = "/" + container + "/" + name;
      break;
    case cloud::OpKind::kList:
      req.method = "GET";
      req.path = "/" + container + "?list";
      break;
  }
  req.headers["Content-Length"] = std::to_string(req.body.size());
  req.headers["Host"] = "gcs-api.local";
  return req;
}

common::Result<DecodedOp> decode_op(const RestRequest& request) {
  if (request.path.empty() || request.path[0] != '/') {
    return common::invalid_argument("path must start with '/'");
  }
  std::string_view path(request.path);
  path.remove_prefix(1);

  bool list_query = false;
  if (const auto q = path.find('?'); q != std::string_view::npos) {
    list_query = path.substr(q + 1) == "list";
    if (!list_query) {
      return common::invalid_argument("unknown query string");
    }
    path = path.substr(0, q);
  }

  const auto slash = path.find('/');
  std::string_view container_esc =
      slash == std::string_view::npos ? path : path.substr(0, slash);
  std::string_view name_esc =
      slash == std::string_view::npos ? std::string_view{} : path.substr(slash + 1);

  auto container = percent_unescape(container_esc);
  if (!container.is_ok()) return container.status();
  auto name = percent_unescape(name_esc);
  if (!name.is_ok()) return name.status();
  if (container.value().empty()) {
    return common::invalid_argument("empty container in path");
  }

  DecodedOp out;
  out.key = {container.value(), name.value()};

  if (request.method == "PUT") {
    out.op = name.value().empty() ? cloud::OpKind::kCreate : cloud::OpKind::kPut;
  } else if (request.method == "GET") {
    if (list_query) {
      out.op = cloud::OpKind::kList;
    } else if (name.value().empty()) {
      return common::invalid_argument("GET on container requires ?list");
    } else {
      out.op = cloud::OpKind::kGet;
    }
  } else if (request.method == "DELETE") {
    if (name.value().empty()) {
      return common::invalid_argument("DELETE requires an object name");
    }
    out.op = cloud::OpKind::kRemove;
  } else {
    return common::invalid_argument("unsupported method: " + request.method);
  }
  return out;
}

common::Bytes serialize(const RestRequest& request) {
  std::string head = request.method + " " + request.path + " HTTP/1.1";
  head += kCrlf;
  for (const auto& [k, v] : request.headers) {
    head += k + ": " + v;
    head += kCrlf;
  }
  head += kCrlf;
  common::Bytes out(head.begin(), head.end());
  common::count_copied_bytes(request.body.size());
  out.insert(out.end(), request.body.begin(), request.body.end());
  return out;
}

common::Result<RestRequest> parse_request(common::ByteSpan wire) {
  const std::string_view text(reinterpret_cast<const char*>(wire.data()),
                              wire.size());
  const auto header_end = text.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return common::invalid_argument("missing header terminator");
  }
  std::string_view head = text.substr(0, header_end);

  RestRequest req;
  std::size_t line_start = 0;
  bool first = true;
  while (line_start <= head.size()) {
    auto line_end = head.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    std::string_view line = head.substr(line_start, line_end - line_start);
    if (first) {
      const auto sp1 = line.find(' ');
      const auto sp2 = line.rfind(' ');
      if (sp1 == std::string_view::npos || sp2 == sp1) {
        return common::invalid_argument("malformed request line");
      }
      if (line.substr(sp2 + 1) != "HTTP/1.1") {
        return common::invalid_argument("unsupported HTTP version");
      }
      req.method = std::string(line.substr(0, sp1));
      req.path = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      first = false;
    } else if (!line.empty()) {
      const auto colon = line.find(": ");
      if (colon == std::string_view::npos) {
        return common::invalid_argument("malformed header line");
      }
      req.headers[std::string(line.substr(0, colon))] =
          std::string(line.substr(colon + 2));
    }
    if (line_end == head.size()) break;
    line_start = line_end + 2;
  }

  const std::size_t body_start = header_end + 4;
  common::count_copied_bytes(wire.size() - body_start);
  req.body.assign(wire.begin() + static_cast<std::ptrdiff_t>(body_start),
                  wire.end());

  // Validate Content-Length if present.
  if (auto it = req.headers.find("Content-Length"); it != req.headers.end()) {
    std::size_t declared = 0;
    const auto& v = it->second;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), declared);
    if (ec != std::errc{} || p != v.data() + v.size()) {
      return common::invalid_argument("bad Content-Length");
    }
    if (declared != req.body.size()) {
      return common::invalid_argument("Content-Length mismatch");
    }
  }
  return req;
}

int status_to_http(const common::Status& status) {
  switch (status.code()) {
    case common::StatusCode::kOk: return 200;
    case common::StatusCode::kNotFound: return 404;
    case common::StatusCode::kUnavailable: return 503;
    case common::StatusCode::kInvalidArgument: return 400;
    case common::StatusCode::kAlreadyExists: return 409;
    case common::StatusCode::kDataLoss: return 500;
    case common::StatusCode::kFailedPrecondition: return 412;
    case common::StatusCode::kInternal: return 500;
    case common::StatusCode::kResourceExhausted: return 429;  // throttled
  }
  return 500;
}

common::Status http_to_status(int code, const std::string& message) {
  switch (code) {
    case 200: return common::Status::ok();
    case 404: return common::not_found(message);
    case 503: return common::unavailable(message);
    case 400: return common::invalid_argument(message);
    case 409: return common::already_exists(message);
    case 412: return common::failed_precondition(message);
    case 429: return common::resource_exhausted(message);
    default: return common::internal_error(message);
  }
}

}  // namespace hyrd::gcs
