// Malformed numeric inputs shared by the decoder totality tests
// (constraints_test, session_test, backend_test): every decoder that
// turns a JSON number into an id, a cap or a version must reject these
// with a Status, before any float-to-int cast.

#ifndef DBDESIGN_TESTS_MALFORMED_JSON_H_
#define DBDESIGN_TESTS_MALFORMED_JSON_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/json.h"

namespace dbdesign {

/// JSON texts that are not a valid id: fractional (a truncating cast
/// would read 0 and 2), negative, far outside int (a cast is undefined
/// behaviour), and NaN through the non-finite sentinel.
inline const std::vector<std::string>& MalformedIds() {
  static const std::vector<std::string> ids = {
      "0.9", "2.7", "-1", "1e300", "\"__nonfinite:nan\""};
  return ids;
}

/// int64 string encodings strtoll would read as 0 or clamp.
inline const std::vector<std::string>& MalformedInt64s() {
  static const std::vector<std::string> texts = {"abc",
                                                 "99999999999999999999"};
  return texts;
}

/// One design document per id position the design codec decodes, with
/// `id` (JSON text) in that position and valid ids elsewhere.
inline std::vector<std::string> DesignsWithId(const std::string& id) {
  return {
      R"({"indexes":[{"table":)" + id + R"(,"columns":[0]}]})",
      R"({"indexes":[{"table":0,"columns":[)" + id + "]}]}",
      R"({"indexes":[],"vertical":[{"table":)" + id +
          R"(,"fragments":[[0]]}]})",
      R"({"indexes":[],"vertical":[{"table":0,"fragments":[[)" + id +
          "]]}]}",
      R"({"indexes":[],"horizontal":[{"table":)" + id +
          R"(,"column":0,"bounds":[]}]})",
      R"({"indexes":[],"horizontal":[{"table":0,"column":)" + id +
          R"(,"bounds":[]}]})",
  };
}

/// A design whose one partition bound is the int64 encoding `text`.
inline std::string DesignWithInt64Bound(const std::string& text) {
  return R"({"indexes":[],"horizontal":[{"table":0,"column":0,"bounds":[)"
         R"({"t":"i","v":")" +
         text + R"("}]}]})";
}

inline Json ParseJsonOrDie(const std::string& text) {
  Result<Json> parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? parsed.value() : Json();
}

}  // namespace dbdesign

#endif  // DBDESIGN_TESTS_MALFORMED_JSON_H_
