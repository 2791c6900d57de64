// Lightweight error-handling vocabulary used across all MegaMmap modules.
//
// Status and StatusOr<T> follow the usual value-or-error idiom: functions
// that can fail return Status (or StatusOr<T> when they also produce a
// value) instead of throwing. Exceptions are reserved for programming
// errors (contract violations), surfaced via MM_CHECK.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace mm {

/// Canonical error codes. Kept deliberately small; the message string
/// carries the detail.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kIoError,
  kUnavailable,  // target (tier/node) permanently failed; not retryable
  kDataLoss,     // unrecoverable data corruption/loss detected
  kPeerDead,     // peer rank declared dead by the failure detector
};

/// Human-readable name for a StatusCode.
const char* StatusCodeName(StatusCode code);

/// A success-or-error result with an optional message. [[nodiscard]]: a
/// dropped Status is a swallowed failure, so every discarded result must be
/// an explicit, commented `(void)` cast (mm_verify rule MML005).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = StatusCodeName(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status IoError(std::string msg) {
  return Status(StatusCode::kIoError, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status DataLoss(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}
inline Status PeerDead(std::string msg) {
  return Status(StatusCode::kPeerDead, std::move(msg));
}

/// Value-or-Status. Accessing value() on an error aborts via exception,
/// so callers must check ok() (or use MM_ASSIGN_OR_RETURN).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Internal("StatusOr constructed from OK status without value");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    RequireOk();
    return *value_;
  }
  const T& value() const& {
    RequireOk();
    return *value_;
  }
  T&& value() && {
    RequireOk();
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void RequireOk() const {
    if (!ok()) {
      throw std::logic_error("StatusOr::value() on error: " +
                             status_.ToString());
    }
  }

  Status status_;
  std::optional<T> value_;
};

namespace detail {
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line,
                              const std::string& extra);
}  // namespace detail

/// Contract check: aborts (throws std::logic_error) with location info when
/// the condition does not hold. Active in all build types.
#define MM_CHECK(cond)                                            \
  do {                                                            \
    if (!(cond)) {                                                \
      ::mm::detail::CheckFailed(#cond, __FILE__, __LINE__, "");   \
    }                                                             \
  } while (0)

#define MM_CHECK_MSG(cond, msg)                                      \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::mm::detail::CheckFailed(#cond, __FILE__, __LINE__, (msg));   \
    }                                                                \
  } while (0)

/// Propagates an error Status from the current function.
#define MM_RETURN_IF_ERROR(expr)              \
  do {                                        \
    ::mm::Status _mm_st = (expr);             \
    if (!_mm_st.ok()) return _mm_st;          \
  } while (0)

/// Unwraps a StatusOr into `lhs`, returning the error on failure.
#define MM_ASSIGN_OR_RETURN(lhs, expr)              \
  auto MM_CONCAT_(_mm_sor_, __LINE__) = (expr);     \
  if (!MM_CONCAT_(_mm_sor_, __LINE__).ok())         \
    return MM_CONCAT_(_mm_sor_, __LINE__).status(); \
  lhs = std::move(MM_CONCAT_(_mm_sor_, __LINE__)).value()

#define MM_CONCAT_INNER_(a, b) a##b
#define MM_CONCAT_(a, b) MM_CONCAT_INNER_(a, b)

}  // namespace mm
