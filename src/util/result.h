// Result<T, E>: lightweight expected-style error handling.
//
// Security denials (flow violations, quota exhaustion, auth failures) are
// *expected outcomes* in W5, not programming errors, so they travel as
// values rather than exceptions (exceptions remain for logic errors).
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace w5::util {

// A minimal error payload: machine-readable code plus human-readable detail.
struct Error {
  std::string code;    // stable, e.g. "flow.denied", "auth.bad_password"
  std::string detail;  // free-form context for logs and debugging

  friend bool operator==(const Error&, const Error&) = default;
};

inline Error make_error(std::string code, std::string detail = {}) {
  return Error{std::move(code), std::move(detail)};
}

template <typename T, typename E = Error>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::in_place_index<0>, std::move(value)) {}
  Result(E error) : storage_(std::in_place_index<1>, std::move(error)) {}

  bool ok() const noexcept { return storage_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<0>(storage_);
  }
  T& value() & {
    assert(ok());
    return std::get<0>(storage_);
  }
  T&& value() && {
    assert(ok());
    return std::get<0>(std::move(storage_));
  }

  const E& error() const& {
    assert(!ok());
    return std::get<1>(storage_);
  }
  E&& error() && {
    assert(!ok());
    return std::get<1>(std::move(storage_));
  }

  // value_or: fall back when the operation failed.
  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? std::get<0>(storage_) : T(std::forward<U>(fallback));
  }

  // map: transform the success value, propagating errors untouched.
  template <typename F>
  auto map(F&& f) const& -> Result<decltype(f(std::declval<const T&>())), E> {
    if (ok()) return f(value());
    return error();
  }

  friend bool operator==(const Result&, const Result&) = default;

 private:
  std::variant<T, E> storage_;
};

// Result<void>: success carries no payload.
template <typename E>
class [[nodiscard]] Result<void, E> {
 public:
  Result() : error_{}, ok_(true) {}
  Result(E error) : error_(std::move(error)), ok_(false) {}

  static Result success() { return Result(); }

  bool ok() const noexcept { return ok_; }
  explicit operator bool() const noexcept { return ok_; }

  const E& error() const& {
    assert(!ok_);
    return error_;
  }
  E&& error() && {
    assert(!ok_);
    return std::move(error_);
  }

  friend bool operator==(const Result&, const Result&) = default;

 private:
  E error_;
  bool ok_;
};

using Status = Result<void, Error>;

inline Status ok_status() { return Status::success(); }

}  // namespace w5::util
