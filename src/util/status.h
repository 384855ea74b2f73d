// Lightweight Status / error-code type used across all public APIs.
//
// Follows the RocksDB/Abseil idiom: functions that can fail return a Status
// (or StatusOr<T>, see statusor.h) instead of throwing exceptions across
// library boundaries.

#ifndef CONTENDER_UTIL_STATUS_H_
#define CONTENDER_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace contender {

/// Error categories used by Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kResourceExhausted,
};

/// Returns a human-readable name for a StatusCode ("OK", "InvalidArgument"...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result. Cheap to copy on the OK path. Marked
/// [[nodiscard]] so a dropped error status is a compile-time warning
/// (error under CONTENDER_WERROR); intentionally ignored statuses must be
/// cast to void.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller.
#define CONTENDER_RETURN_IF_ERROR(expr)          \
  do {                                           \
    ::contender::Status _st = (expr);            \
    if (!_st.ok()) return _st;                   \
  } while (0)

}  // namespace contender

#endif  // CONTENDER_UTIL_STATUS_H_
