// Minimal leveled logger + the DBD_CHECK invariant framework.
//
// The designer components report progress (solver nodes explored, COLT
// epoch summaries, cache statistics) through this logger; benchmarks and
// tests silence it by raising the level.
//
// Invariants:
//   DBD_CHECK(cond)            always-on; logs the failing expression
//                              (file:line) and aborts.
//   DBD_CHECK_EQ/NE/LT/LE/GT/GE(a, b)
//                              like DBD_CHECK(a op b) but also logs the
//                              two operand VALUES, so a failure in a CI
//                              log is diagnosable without a debugger.
//   DBD_DCHECK / DBD_DCHECK_*  same, but compiled out under NDEBUG —
//                              use on hot paths (per-tuple, per-atom).
//
// Bare `assert(...)` is banned in src/ (the default RelWithDebInfo
// build defines NDEBUG, so a bare assert silently checks NOTHING in the
// build users actually run); tools/lint/determinism_lint.py enforces
// the ban.

#ifndef DBDESIGN_UTIL_LOGGING_H_
#define DBDESIGN_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace dbdesign {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Process-wide minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Emits `msg` to stderr if `level` >= the process-wide level. The
/// calling thread's log tag (see ScopedLogTag), when set, is printed
/// between the level and the message: "[INFO] (session=s42) msg".
void LogMessage(LogLevel level, const std::string& msg);

/// Installs a thread-local tag on every log line the calling thread
/// emits while the scope is alive; restores the previous tag on exit
/// (scopes nest). The tuning server tags each request's execution with
/// "session=<id> req=<n>" so interleaved multi-session logs stay
/// attributable to the session that produced them.
class ScopedLogTag {
 public:
  explicit ScopedLogTag(std::string tag);
  ~ScopedLogTag();
  ScopedLogTag(const ScopedLogTag&) = delete;
  ScopedLogTag& operator=(const ScopedLogTag&) = delete;

 private:
  std::string previous_;
};

/// The calling thread's current log tag ("" when none is installed).
const std::string& ThreadLogTag();

// The level is checked before `msg` is evaluated, so a message below
// the process-wide level costs one call to GetLogLevel() and never
// builds its string.
#define DBD_LOG_AT(level, msg)                       \
  do {                                               \
    if ((level) >= ::dbdesign::GetLogLevel()) {      \
      ::dbdesign::LogMessage((level), (msg));        \
    }                                                \
  } while (false)

#define DBD_LOG_DEBUG(msg) DBD_LOG_AT(::dbdesign::LogLevel::kDebug, msg)
#define DBD_LOG_INFO(msg) DBD_LOG_AT(::dbdesign::LogLevel::kInfo, msg)
#define DBD_LOG_WARN(msg) DBD_LOG_AT(::dbdesign::LogLevel::kWarning, msg)
#define DBD_LOG_ERROR(msg) DBD_LOG_AT(::dbdesign::LogLevel::kError, msg)

namespace internal {

/// Logs "CHECK failed: <expr> (<operands>) at file:line" and aborts.
[[noreturn]] void CheckFail(const char* file, int line, const char* expr,
                            const std::string& operands);

/// "left vs right" for the binary CHECK forms. Values that cannot be
/// streamed print as "<unprintable>".
template <typename T>
void StreamOperand(std::ostream& os, const T& v) {
  if constexpr (requires(std::ostream& s, const T& x) { s << x; }) {
    os << v;
  } else {
    os << "<unprintable>";
  }
}

template <typename A, typename B>
std::string FormatOperands(const A& a, const B& b) {
  std::ostringstream os;
  StreamOperand(os, a);
  os << " vs ";
  StreamOperand(os, b);
  return os.str();
}

}  // namespace internal

#define DBD_CHECK(cond)                                          \
  ((cond) ? static_cast<void>(0)                                 \
          : ::dbdesign::internal::CheckFail(__FILE__, __LINE__,  \
                                            #cond, std::string()))

#define DBD_CHECK_BINOP_IMPL(op, a, b)                                    \
  do {                                                                    \
    const auto& dbd_check_lhs = (a);                                      \
    const auto& dbd_check_rhs = (b);                                      \
    if (!(dbd_check_lhs op dbd_check_rhs)) {                              \
      ::dbdesign::internal::CheckFail(                                    \
          __FILE__, __LINE__, #a " " #op " " #b,                          \
          ::dbdesign::internal::FormatOperands(dbd_check_lhs,             \
                                               dbd_check_rhs));           \
    }                                                                     \
  } while (false)

#define DBD_CHECK_EQ(a, b) DBD_CHECK_BINOP_IMPL(==, a, b)
#define DBD_CHECK_NE(a, b) DBD_CHECK_BINOP_IMPL(!=, a, b)
#define DBD_CHECK_LT(a, b) DBD_CHECK_BINOP_IMPL(<, a, b)
#define DBD_CHECK_LE(a, b) DBD_CHECK_BINOP_IMPL(<=, a, b)
#define DBD_CHECK_GT(a, b) DBD_CHECK_BINOP_IMPL(>, a, b)
#define DBD_CHECK_GE(a, b) DBD_CHECK_BINOP_IMPL(>=, a, b)

// Debug-only variants: zero cost under NDEBUG (the condition is inside
// sizeof, so it is parsed — names stay checked — but never evaluated).
#ifdef NDEBUG
#define DBD_DCHECK(cond) static_cast<void>(sizeof((cond) ? 1 : 0))
#define DBD_DCHECK_EQ(a, b) static_cast<void>(sizeof(((a) == (b)) ? 1 : 0))
#define DBD_DCHECK_NE(a, b) static_cast<void>(sizeof(((a) != (b)) ? 1 : 0))
#define DBD_DCHECK_LT(a, b) static_cast<void>(sizeof(((a) < (b)) ? 1 : 0))
#define DBD_DCHECK_LE(a, b) static_cast<void>(sizeof(((a) <= (b)) ? 1 : 0))
#define DBD_DCHECK_GT(a, b) static_cast<void>(sizeof(((a) > (b)) ? 1 : 0))
#define DBD_DCHECK_GE(a, b) static_cast<void>(sizeof(((a) >= (b)) ? 1 : 0))
#else
#define DBD_DCHECK(cond) DBD_CHECK(cond)
#define DBD_DCHECK_EQ(a, b) DBD_CHECK_EQ(a, b)
#define DBD_DCHECK_NE(a, b) DBD_CHECK_NE(a, b)
#define DBD_DCHECK_LT(a, b) DBD_CHECK_LT(a, b)
#define DBD_DCHECK_LE(a, b) DBD_CHECK_LE(a, b)
#define DBD_DCHECK_GT(a, b) DBD_CHECK_GT(a, b)
#define DBD_DCHECK_GE(a, b) DBD_CHECK_GE(a, b)
#endif

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_LOGGING_H_
