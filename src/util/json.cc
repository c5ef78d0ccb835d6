#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/str.h"

namespace dbdesign {

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

void Json::Append(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  array_.push_back(std::move(v));
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  return object_[key];
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

namespace {

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      break;
    case Json::Kind::kBool:
      *out += j.bool_value() ? "true" : "false";
      break;
    case Json::Kind::kNumber: {
      double d = j.number();
      if (!std::isfinite(d)) {
        // JSON has no Infinity/NaN. A cost call CAN legitimately return
        // +inf (e.g. every access path disabled by knobs), and a trace
        // that replayed it as null would type-confuse the reader — so
        // non-finite numbers round-trip through a tagged string
        // sentinel that Parse converts back to a number.
        out->push_back('"');
        *out += kJsonNonFiniteTag;
        *out += std::isnan(d) ? "nan" : (d > 0 ? "inf" : "-inf");
        out->push_back('"');
        break;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      *out += buf;
      break;
    }
    case Json::Kind::kString:
      // Keep real string payloads out of the sentinel namespace: a
      // string that happens to start with the non-finite tag dumps
      // behind an "esc:" marker that Parse strips again, so every
      // string round-trips losslessly and only genuine sentinels
      // convert to numbers.
      if (j.str().compare(0, sizeof(kJsonNonFiniteTag) - 1,
                          kJsonNonFiniteTag) == 0) {
        EscapeTo(std::string(kJsonNonFiniteTag) + "esc:" + j.str(), out);
      } else {
        EscapeTo(j.str(), out);
      }
      break;
    case Json::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : j.members()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeTo(key, out);
        out->push_back(':');
        DumpTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Run() {
    SkipWs();
    Json root;
    Status st = ParseValue(&root);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::ParseError("trailing characters after JSON document");
    }
    return root;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Fail(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  Status ParseValue(Json* out) {
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    char c = s_[pos_];
    switch (c) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': {
        std::string str;
        Status st = ParseString(&str);
        if (!st.ok()) return st;
        // Non-finite number sentinels round-trip back to numbers, and
        // "esc:"-marked strings shed the escape Dump added (the other
        // half of the Dump-side encoding). Anything else in the tag
        // namespace — e.g. a hand-edited document — stays a plain
        // string rather than failing the parse.
        if (str.compare(0, sizeof(kJsonNonFiniteTag) - 1,
                        kJsonNonFiniteTag) == 0) {
          std::string rest = str.substr(sizeof(kJsonNonFiniteTag) - 1);
          if (rest == "inf") {
            *out = Json::Number(std::numeric_limits<double>::infinity());
            return Status::OK();
          }
          if (rest == "-inf") {
            *out = Json::Number(-std::numeric_limits<double>::infinity());
            return Status::OK();
          }
          if (rest == "nan") {
            *out = Json::Number(std::numeric_limits<double>::quiet_NaN());
            return Status::OK();
          }
          if (rest.compare(0, 4, "esc:") == 0) {
            *out = Json::Str(rest.substr(4));
            return Status::OK();
          }
        }
        *out = Json::Str(std::move(str));
        return Status::OK();
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = Json::Bool(true);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = Json::Bool(false);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = Json::Null();
          return Status::OK();
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    std::string token = s_.substr(start, pos_ - start);
    double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    *out = Json::Number(d);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; traces contain ASCII identifiers).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseArray(Json* out) {
    Consume('[');
    *out = Json::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json item;
      Status st = ParseValue(&item);
      if (!st.ok()) return st;
      out->Append(std::move(item));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']'");
      SkipWs();
    }
  }

  Status ParseObject(Json* out) {
    Consume('{');
    *out = Json::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      Json value;
      st = ParseValue(&value);
      if (!st.ok()) return st;
      (*out)[key] = std::move(value);
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}'");
      SkipWs();
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Run();
}

Result<int> JsonInt(const Json& j, int lo, int hi, const char* what) {
  if (!j.is_number()) {
    return Status::ParseError(std::string(what) + " must be a number");
  }
  const double d = j.number();
  if (!std::isfinite(d) || d != std::trunc(d)) {
    return Status::ParseError(
        StrFormat("%s must be an integer, got %g", what, d));
  }
  if (d < lo || d > hi) {
    return Status::InvalidArgument(
        StrFormat("%s %g out of range [%d, %d]", what, d, lo, hi));
  }
  return static_cast<int>(d);
}

}  // namespace dbdesign
