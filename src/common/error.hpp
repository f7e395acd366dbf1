#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

/// @file error.hpp
/// Exception types for contract violations inside the HyperEar library.

namespace hyperear {

/// Base class for all errors raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Raised when a contract macro (HE_EXPECTS / HE_ENSURES / HE_ASSERT_FINITE,
/// common/contracts.hpp) fires in a checked build. Derives from
/// PreconditionError so call sites that were promoted from always-on
/// `require()` checks to checked-build contracts keep satisfying existing
/// `catch (const PreconditionError&)` handlers and tests; classify_exception
/// (core/status.cpp) maps it to ErrorCategory::precondition the same way.
class InvariantError : public PreconditionError {
 public:
  explicit InvariantError(const std::string& what) : PreconditionError(what) {}
};

/// Raised when a numerical routine fails to converge or degenerates.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Raised when a signal-processing stage cannot find what it needs in the
/// data (e.g. no chirp detected, no slide segment found).
class DetectionError : public Error {
 public:
  explicit DetectionError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_precondition(const std::string& what) {
  throw PreconditionError(what);
}
}  // namespace detail

/// Check a precondition; throws PreconditionError with the given message.
/// A view, so a passing check on a literal message allocates nothing: the
/// detector runs several per chunk.
inline void require(bool condition, std::string_view what) {
  if (!condition) detail::throw_precondition(std::string(what));
}

}  // namespace hyperear
