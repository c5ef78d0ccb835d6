// Seeded-violation corpus for the header-only legacy-api checks.
// lint_selftest.py asserts the exact rule fires on the exact line.
// This file is never compiled.
namespace dbdesign {

class Advisor {
 public:
  explicit Advisor(DbmsBackend& backend);
  explicit Advisor(const Database& db);  // VIOLATION legacy-api
  Advisor(Database const& db, int knob);  // VIOLATION legacy-api

 private:
  std::shared_ptr<DbmsBackend> owned_backend_;  // VIOLATION legacy-api
  DbmsBackend* backend_;
};

}  // namespace dbdesign
