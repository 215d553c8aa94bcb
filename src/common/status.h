#ifndef XKSEARCH_COMMON_STATUS_H_
#define XKSEARCH_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace xksearch {

/// Error categories used across the library. Mirrors the Arrow/RocksDB
/// convention: a cheap, copyable status object instead of exceptions.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kParseError = 2,
  kIoError = 3,
  kNotFound = 4,
  kCorruption = 5,
  kOutOfRange = 6,
  kNotSupported = 7,
  kInternal = 8,
  /// Transient overload: the operation was refused by admission control
  /// (e.g. a full request queue) and may succeed if retried later.
  kUnavailable = 9,
  /// The caller-supplied deadline passed before the operation ran.
  kDeadlineExceeded = 10,
  /// A bounded resource stayed used up (e.g. every buffer-pool frame of a
  /// shard pinned past the wait bound); may succeed once load drops.
  kResourceExhausted = 11,
};

/// \brief Returns a human-readable name for a status code ("OK",
/// "Invalid argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that can fail.
///
/// The OK state is represented by a null internal pointer so that the
/// success path costs a single pointer test and no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(message)})) {}

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// Error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->message;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define XKS_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::xksearch::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (false)

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_STATUS_H_
