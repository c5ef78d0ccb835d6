#include "catalog/value.h"

#include <bit>

#include "util/hash.h"
#include "util/str.h"

namespace dbdesign {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "?";
}

int DataTypeWidth(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return 8;
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return 16;  // short inline strings dominate the synthetic schemas
  }
  return 8;
}

int Value::Compare(const Value& other) const {
  if (type() == DataType::kString || other.type() == DataType::kString) {
    DBD_CHECK(type() == DataType::kString &&
              other.type() == DataType::kString);
    const std::string& a = AsString();
    const std::string& b = other.AsString();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  // Numeric comparison (int64 vs double promotes to double).
  if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
    int64_t a = AsInt();
    int64_t b = other.AsInt();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  double a = AsDouble();
  double b = other.AsDouble();
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

double Value::NumericPosition() const {
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(AsInt());
    case DataType::kDouble:
      return AsDouble();
    case DataType::kString: {
      // Map the first 8 bytes to a monotone-ish position in [0, 1).
      const std::string& s = AsString();
      double pos = 0.0;
      double scale = 1.0 / 256.0;
      for (size_t i = 0; i < 8 && i < s.size(); ++i) {
        pos += static_cast<unsigned char>(s[i]) * scale;
        scale /= 256.0;
      }
      return pos;
    }
  }
  return 0.0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kInt64:
      return StrFormat("%lld", static_cast<long long>(AsInt()));
    case DataType::kDouble:
      return StrFormat("%.6g", AsDouble());
    case DataType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

uint64_t Value::Hash() const {
  auto mix = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  switch (type()) {
    case DataType::kInt64:
      return mix(static_cast<uint64_t>(AsInt()));
    case DataType::kDouble: {
      // -0.0 == 0.0 under operator==, so both hash as +0.0; otherwise a
      // hash join misses a match a nested-loop join finds. (NaN compares
      // equal to everything and cannot hash consistently; an int and an
      // equal double also hash apart. Engine joins are same-type.)
      double d = AsDouble();
      return mix(std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d));
    }
    case DataType::kString:
      return mix(Fnv1a(kFnvLegacyBasis).MixRaw(AsString()).digest());
  }
  return 0;
}

}  // namespace dbdesign
