// Minimal Status / Result error-handling vocabulary.
//
// HyRD runs long simulated workloads where throwing on every unavailable
// provider would dominate cost; recoverable conditions (outage, missing key)
// travel as values, programmer errors assert.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace hyrd::common {

// Numbered explicitly: trace spans export the integer, so retiring a code
// must not renumber the ones after it.
enum class StatusCode {
  kOk = 0,
  kNotFound = 1,        // object or container does not exist
  kUnavailable = 2,     // provider in outage
  kInvalidArgument = 3, // malformed request
  kAlreadyExists = 4,   // container creation collision
  kDataLoss = 5,        // too many fragments missing to reconstruct
  kFailedPrecondition = 6,
  kInternal = 7,
  kResourceExhausted = 9,  // provider over capacity; request throttled (429)
};

/// Human-readable code name (stable; used in logs and test assertions).
constexpr std::string_view status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] std::string to_string() const {
    if (is_ok()) return "OK";
    std::string s(status_code_name(code_));
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status not_found(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status invalid_argument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status already_exists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status data_loss(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status failed_precondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status internal_error(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status resource_exhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}

/// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Status status) : var_(std::move(status)) {     // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(var_).is_ok() &&
           "Result constructed from OK status must carry a value");
  }

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(var_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(var_);
  }

  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return std::get<T>(var_);
  }
  [[nodiscard]] T& value() & {
    assert(is_ok());
    return std::get<T>(var_);
  }
  [[nodiscard]] T&& value() && {
    assert(is_ok());
    return std::get<T>(std::move(var_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? std::get<T>(var_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> var_;
};

}  // namespace hyrd::common
