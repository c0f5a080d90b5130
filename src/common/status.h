#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace blendhouse::common {

/// Error/success result of an operation, in the style of RocksDB's Status.
///
/// BlendHouse does not throw exceptions across API boundaries; every fallible
/// public function returns a `Status` or a `Result<T>` (see result.h). A
/// default-constructed Status is OK and carries no message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kCorruption,
    kNotSupported,
    kIoError,
    kAborted,
    kResourceExhausted,
    kInternal,
  };

  Status() = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(Code::kCorruption, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(Code::kNotSupported, msg);
  }
  static Status IoError(std::string_view msg) {
    return Status(Code::kIoError, msg);
  }
  static Status Aborted(std::string_view msg) {
    return Status(Code::kAborted, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(Code::kResourceExhausted, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(Code::kInternal, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string, e.g. "InvalidArgument: bad dim".
  std::string ToString() const;

 private:
  Status(Code code, std::string_view msg) : code_(code), message_(msg) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define BH_RETURN_IF_ERROR(expr)                         \
  do {                                                   \
    ::blendhouse::common::Status _bh_status = (expr);    \
    if (!_bh_status.ok()) return _bh_status;             \
  } while (0)

}  // namespace blendhouse::common
