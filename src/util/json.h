// Minimal JSON document model: parse, build, dump.
//
// The one document model behind every persisted artifact: design
// descriptors, constraints and session files (catalog/design_json,
// core/constraints, core/session) and backend-call traces
// (backend/trace_backend, which encodes its design and statistics
// values through catalog/design_json). Numbers are IEEE doubles
// serialized with enough digits (%.17g) to round-trip exactly; callers
// that need full int64 precision encode those values as strings.
// Non-finite doubles (a cost call can legitimately return +inf) have no
// JSON encoding, so Dump writes them as tagged string sentinels
// ("__nonfinite:inf" etc.) that Parse converts back to numbers — the
// whole document round-trips.
//
// A number that becomes an id, a count, a cap, a width or a version is
// read through JsonInt, which rejects non-integral, non-finite and
// out-of-range values before any cast.

#ifndef DBDESIGN_UTIL_JSON_H_
#define DBDESIGN_UTIL_JSON_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace dbdesign {

/// Sentinel prefix for non-finite numbers: Dump writes Infinity/NaN as
/// the strings "__nonfinite:inf" / "__nonfinite:-inf" /
/// "__nonfinite:nan" and Parse turns exactly those strings back into
/// numbers. A real *string* value starting with this prefix dumps
/// behind an extra "__nonfinite:esc:" marker that Parse strips, so
/// every string still round-trips losslessly; unrecognized text in the
/// namespace (hand-edited documents) parses as a plain string.
inline constexpr char kJsonNonFiniteTag[] = "__nonfinite:";

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }

  /// Array access. Append converts a null value to an array.
  const std::vector<Json>& items() const { return array_; }
  void Append(Json v);
  size_t size() const { return array_.size(); }
  const Json& at(size_t i) const { return array_[i]; }

  /// Object access. operator[] converts a null value to an object and
  /// inserts the key if missing.
  Json& operator[](const std::string& key);
  /// Member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
  const std::map<std::string, Json>& members() const { return object_; }

  /// Compact serialization (no whitespace). Deterministic: object keys
  /// are emitted in sorted order.
  std::string Dump() const;

  /// Parses a complete JSON document; trailing garbage is an error.
  static Result<Json> Parse(const std::string& text);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Reads `j` as an int in [lo, hi]. Not a number, not finite or not
/// integral is a ParseError; an integer outside [lo, hi] is
/// InvalidArgument. Both checks run on the double before the cast, so
/// no document reaches an out-of-range float-to-int conversion. `what`
/// names the field in the error message ("table id").
Result<int> JsonInt(const Json& j, int lo, int hi, const char* what);

}  // namespace dbdesign

#endif  // DBDESIGN_UTIL_JSON_H_
