//===- support/Error.h - Recoverable error handling -------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight recoverable-error types in the spirit of llvm::Error /
/// llvm::Expected, without exceptions.  Library code returns \c ErrorOr<T>
/// for operations that can fail because of *input* (malformed wire bytes,
/// unknown object names); programmer errors use assertions instead.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_ERROR_H
#define PARCS_SUPPORT_ERROR_H

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace parcs {

/// Unit type standing in for 'void' wherever a value is required (e.g.
/// ErrorOr<Unit> as the result of a remote void method).
struct Unit {
  friend bool operator==(Unit, Unit) { return true; }
  friend bool operator!=(Unit, Unit) { return false; }
};

/// Category of a recoverable error.  Kept deliberately small; the message
/// carries the detail.
enum class ErrorCode {
  None = 0,
  MalformedMessage,  ///< Wire bytes failed to deserialise.
  UnknownObject,     ///< Remote object URI / registry name not bound.
  UnknownMethod,     ///< Method name not registered on the target class.
  UnknownType,       ///< Serialisation registry has no entry for a type tag.
  ConnectionFailed,  ///< Simulated transport could not reach the peer.
  RemoteFault,       ///< The remote method itself reported a failure.
  InvalidArgument,   ///< Caller-supplied configuration is unusable.
  ParseError,        ///< parcgen source file failed to parse.
  TimedOut,          ///< A call's deadline elapsed before the reply.
  ChecksumMismatch,  ///< Wire frame failed its integrity check (corruption).
  Overloaded,        ///< Server refused admission (queue budget exhausted).
};

/// Returns a stable human-readable name for \p Code.
const char *errorCodeName(ErrorCode Code);

/// A recoverable error: a code plus a free-form message.
class Error {
public:
  Error() = default;
  Error(ErrorCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {
    assert(Code != ErrorCode::None && "real errors need a real code");
  }

  // A success's message is always empty, so moving one copies only the
  // code: libstdc++ moves even an empty inline string with a memcpy call,
  // and every simulated call returns through several moves of a success.
  Error(Error &&Other) noexcept
      : Code(Other.Code), Message(Code == ErrorCode::None
                                      ? std::string()
                                      : std::move(Other.Message)) {}
  Error &operator=(Error &&Other) noexcept {
    Code = Other.Code;
    if (Code == ErrorCode::None)
      Message.clear();
    else
      Message = std::move(Other.Message);
    return *this;
  }
  Error(const Error &) = default;
  Error &operator=(const Error &) = default;

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// True when this object actually carries an error.
  explicit operator bool() const { return Code != ErrorCode::None; }

  /// Renders "code: message" for diagnostics.
  std::string str() const;

private:
  ErrorCode Code = ErrorCode::None;
  std::string Message;
};

/// Either a value of type \p T or an Error, never both.  Modeled after
/// llvm::ErrorOr.
template <typename T> class ErrorOr {
public:
  ErrorOr(T Value) : Storage(std::in_place_index<0>, std::move(Value)) {}
  ErrorOr(Error Err) : Storage(std::in_place_index<1>, std::move(Err)) {
    assert(error() && "ErrorOr constructed from empty Error");
  }
  ErrorOr(ErrorCode Code, std::string Message)
      : Storage(std::in_place_index<1>, Code, std::move(Message)) {}

  /// True on success.
  explicit operator bool() const { return hasValue(); }
  bool hasValue() const { return Storage.index() == 0; }

  T &get() {
    assert(hasValue() && "accessing value of failed ErrorOr");
    return *std::get_if<0>(&Storage);
  }
  const T &get() const {
    assert(hasValue() && "accessing value of failed ErrorOr");
    return *std::get_if<0>(&Storage);
  }
  T &operator*() { return get(); }
  const T &operator*() const { return get(); }
  T *operator->() { return &get(); }
  const T *operator->() const { return &get(); }

  /// Moves the value out; only valid on success.
  T take() {
    assert(hasValue() && "taking value of failed ErrorOr");
    return std::move(*std::get_if<0>(&Storage));
  }

  const Error &error() const {
    assert(!hasValue() && "accessing error of successful ErrorOr");
    return *std::get_if<1>(&Storage);
  }

private:
  std::variant<T, Error> Storage;
};

} // namespace parcs

#endif // PARCS_SUPPORT_ERROR_H
