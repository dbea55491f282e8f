// The serving error taxonomy: every failure the serve path produces is a
// ServiceError carrying a machine-readable ErrorCode, so clients branch
// on code() instead of parsing what() strings, and GraphServiceStats can
// count failures per code.
//
// Code semantics (and what a client should do about each):
//  * DeadlineExceeded — the query's deadline lapsed while queued (shed
//    before running) or mid-run (cooperative checkpoint). Not retryable
//    as-is; retry with a larger budget.
//  * Cancelled        — the client's CancelSource fired. Terminal.
//  * Overloaded       — admission control rejected the submit (queue
//    full / stopping). Retryable after a client-side backoff.
//  * NoSnapshot       — no epoch published yet. Retryable once the
//    writer publishes.
//  * BadRequest       — unknown algorithm code, unknown/ill-typed params,
//    out-of-range source. Never retryable; fix the request.
//  * Internal         — anything else that escaped the worker (algorithm
//    throw, translation failure, injected fault). Possibly transient.
//
// ServiceError derives from vebo::Error, so legacy catch(const Error&)
// sites keep working unchanged.
#pragma once

#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace vebo::serve {

enum class ErrorCode : std::uint8_t {
  DeadlineExceeded = 0,
  Cancelled = 1,
  Overloaded = 2,
  NoSnapshot = 3,
  BadRequest = 4,
  Internal = 5,
};

/// Number of ErrorCode values (sizing per-code counter arrays).
inline constexpr std::size_t kNumErrorCodes = 6;

const char* to_string(ErrorCode c);

class ServiceError : public Error {
 public:
  ServiceError(ErrorCode code, const std::string& what)
      : Error(std::string(to_string(code)) + ": " + what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::NoSnapshot: return "no-snapshot";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::Internal: return "internal";
  }
  return "?";
}

}  // namespace vebo::serve
