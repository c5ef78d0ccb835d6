// Status / Result error-handling primitives.
//
// Fallible operations return a Status, or a Result<T> that carries
// either a value or a Status (RocksDB-style convention). The one
// exception carrier, StatusException, is confined to the engine layer;
// see its comment for the exact contract.

#ifndef DBDESIGN_UTIL_STATUS_H_
#define DBDESIGN_UTIL_STATUS_H_

#include "util/logging.h"
#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace dbdesign {

/// Error category for a failed operation.
///
/// Retryable-vs-permanent taxonomy
/// -------------------------------
/// Codes split into two classes, and every layer between the backend
/// seam and the session APIs relies on the split:
///
///  * **Retryable** (`kUnavailable`, `kDeadlineExceeded`,
///    `kResourceExhausted`): the *call* failed but the *request* is
///    fine — a transient outage, a timeout, a momentarily saturated
///    backend. Retrying the identical call may succeed, and
///    `ResilientBackend` does exactly that (bounded retries with
///    deterministic backoff). A real-DBMS backend must map its
///    connection-reset / timeout / too-many-clients errors onto these
///    codes for the resilience layer to help it.
///
///  * **Permanent** (everything else): the request itself is wrong
///    (`kInvalidArgument`, `kNotFound`, ...) or the failure is not
///    expected to clear on its own (`kInternal`, `kParseError`,
///    `kBindError`). Retrying is wasted work; these propagate to the
///    caller immediately.
///
/// `Status::IsRetryable()` is the single source of truth for the
/// split — resilience code must use it rather than matching codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kParseError,
  kBindError,
  /// Transient backend failure (connection dropped, service
  /// restarting, injected fault). Retryable.
  kUnavailable,
  /// The call exceeded its deadline; the work may have completed on
  /// the backend but the answer did not arrive in time. Retryable.
  kDeadlineExceeded,
};

/// Returns a human-readable name for a status code ("ok", "parse error", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is empty in the common OK case).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True for transient failures where retrying the identical call may
  /// succeed (see the taxonomy on StatusCode). All retry decisions in
  /// the resilience layer go through this predicate.
  bool IsRetryable() const {
    return code_ == StatusCode::kUnavailable ||
           code_ == StatusCode::kDeadlineExceeded ||
           code_ == StatusCode::kResourceExhausted;
  }

  /// "ok" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status.
///
/// Accessing the value of an error Result is a programming error and
/// aborts in every build type (DBD_CHECK, not DBD_DCHECK).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    DBD_CHECK(!status_.ok() &&
              "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    DBD_CHECK(ok() && "value() called on an error Result");
    return *value_;
  }
  T& value() & {
    DBD_CHECK(ok() && "value() called on an error Result");
    return *value_;
  }
  T&& value() && {
    DBD_CHECK(ok() && "value() called on an error Result");
    return std::move(*value_);
  }

  const T& value_or(const T& fallback) const {
    return ok() ? *value_ : fallback;
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Marks a result that was produced under degraded conditions: the
/// backend was down (or kept failing past the retry budget), so the
/// layer fell back to cached state instead of recomputing. A degraded
/// answer is *valid* — it is the last certified answer — but it may be
/// stale, and the caller deserves to know. Session APIs attach this to
/// their result structs so a session never returns a possibly-stale
/// answer unlabeled.
struct DegradedResult {
  /// False for a normally-computed result.
  bool degraded = false;
  /// The backend failure that forced the fallback.
  Status cause;
  /// What the fallback was, e.g. "last-certified-recommendation" or
  /// "cached-deployment-plan".
  std::string fallback;

  static DegradedResult None() { return DegradedResult{}; }
  static DegradedResult Because(Status cause, std::string fallback) {
    return DegradedResult{true, std::move(cause), std::move(fallback)};
  }
};

/// Engine-layer carrier for a backend Status that has to cross frames
/// which cannot return one — double-returning cost functions and
/// ThreadPool::ParallelFor shards, where the first thrown
/// StatusException cancels the remaining shards and is rethrown on the
/// caller.
///
/// Contract: these engine-layer entry points propagate it when a
/// backend call on their exact-costing fallback path fails:
///   * InumCostModel: Cost, WorkloadCost, CostMatrix, and
///     SubsetPricer::Cost (TryCost is the converting form);
///   * InteractionAnalyzer: Analyze, AnalyzeMatrix, ContributionRows
///     (TryContributionRows is the converting form);
///   * MaterializationScheduler: Greedy.
/// Every advisor-layer API (WhatIfOptimizer, CoPhyAdvisor,
/// GreedyAdvisor, AutoPartAdvisor, Designer, ColtTuner) and every
/// DesignSession / TuningServer API catches it at its own boundary and
/// returns the Status (or a DegradedResult) instead.
class StatusException : public std::exception {
 public:
  explicit StatusException(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_STATUS_H_
