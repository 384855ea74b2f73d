#include "util/status.h"

namespace contender {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::optional<StatusCode> StatusCodeFromString(const std::string& name) {
  static constexpr StatusCode kAll[] = {
      StatusCode::kOk,                 StatusCode::kInvalidArgument,
      StatusCode::kNotFound,           StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,         StatusCode::kInternal,
      StatusCode::kUnimplemented,      StatusCode::kResourceExhausted,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : kAll) {
    if (name == StatusCodeToString(code)) return code;
  }
  return std::nullopt;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace contender
