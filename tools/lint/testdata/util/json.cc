// Clean corpus: util/json.cc holds the one checked JSON-to-int reader,
// whose cast runs after the range check.  This file is never compiled.
namespace dbdesign {

Result<int> JsonInt(const Json& j, int lo, int hi, const char* what) {
  if (!j.is_number() || !std::isfinite(j.number())) return Fail(what);
  if (j.number() < lo || j.number() > hi) return Fail(what);
  return static_cast<int>(j.number());
}

}  // namespace dbdesign
