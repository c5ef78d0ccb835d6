#include "core/constraints.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "catalog/design_json.h"
#include "util/str.h"

namespace dbdesign {

namespace {

bool Contains(const std::vector<IndexDef>& v, const IndexDef& index) {
  return std::find(v.begin(), v.end(), index) != v.end();
}

void Remove(std::vector<IndexDef>* v, const IndexDef& index) {
  v->erase(std::remove(v->begin(), v->end(), index), v->end());
}

void AddUnique(std::vector<IndexDef>* v, const IndexDef& index) {
  if (!Contains(*v, index)) v->push_back(index);
}

Status CheckIndexIds(const IndexDef& index, const Catalog& catalog,
                     const char* role) {
  if (index.table < 0 || index.table >= catalog.num_tables()) {
    return Status::InvalidArgument(
        StrFormat("%s index: table id %d out of range", role, index.table));
  }
  if (index.columns.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s index on %s has no columns", role,
                  catalog.table(index.table).name().c_str()));
  }
  for (ColumnId c : index.columns) {
    if (c < 0 || c >= catalog.table(index.table).num_columns()) {
      return Status::InvalidArgument(
          StrFormat("%s index: column id %d out of range for table %s", role,
                    c, catalog.table(index.table).name().c_str()));
    }
  }
  return Status::OK();
}

Json IndexListToJson(const std::vector<IndexDef>& v) {
  Json arr = Json::Array();
  for (const IndexDef& idx : v) arr.Append(IndexDefToJson(idx));
  return arr;
}

Status IndexListFromJson(const Json& j, const Catalog& catalog,
                         std::vector<IndexDef>* out) {
  if (!j.is_array()) return Status::ParseError("expected an index array");
  for (const Json& item : j.items()) {
    Result<IndexDef> idx = IndexDefFromJson(item, catalog);
    if (!idx.ok()) return idx.status();
    out->push_back(std::move(idx).value());
  }
  return Status::OK();
}

Json TableListToJson(const std::vector<TableId>& v) {
  Json arr = Json::Array();
  for (TableId t : v) arr.Append(Json::Number(t));
  return arr;
}

Status TableListFromJson(const Json& j, const Catalog& catalog,
                         std::vector<TableId>* out) {
  if (!j.is_array()) return Status::ParseError("expected a table-id array");
  for (const Json& item : j.items()) {
    Result<TableId> t = TableIdFromJson(item, catalog);
    if (!t.ok()) return t.status();
    out->push_back(t.value());
  }
  return Status::OK();
}

}  // namespace

std::string ColumnRef::DisplayName(const Catalog& catalog) const {
  return catalog.table(table).name() + "." +
         catalog.table(table).column(column).name;
}

bool DesignConstraints::unconstrained() const {
  return *this == DesignConstraints{};
}

bool DesignConstraints::IsPinned(const IndexDef& index) const {
  return Contains(pinned_indexes, index);
}

bool DesignConstraints::IsVetoed(const IndexDef& index) const {
  if (Contains(vetoed_indexes, index)) return true;
  for (ColumnId c : index.columns) {
    if (std::find(vetoed_columns.begin(), vetoed_columns.end(),
                  ColumnRef{index.table, c}) != vetoed_columns.end()) {
      return true;
    }
  }
  return false;
}

bool DesignConstraints::PartitioningAllowed(TableId table) const {
  if (!partitioning_enabled) return false;
  if (std::find(partition_denied_tables.begin(),
                partition_denied_tables.end(),
                table) != partition_denied_tables.end()) {
    return false;
  }
  return partition_allowed_tables.empty() ||
         std::find(partition_allowed_tables.begin(),
                   partition_allowed_tables.end(),
                   table) != partition_allowed_tables.end();
}

std::optional<int> DesignConstraints::TableCap(TableId table) const {
  auto it = max_indexes_per_table.find(table);
  if (it == max_indexes_per_table.end()) return std::nullopt;
  return it->second;
}

int DesignConstraints::TableCapOrUnlimited(TableId table) const {
  std::optional<int> cap = TableCap(table);
  return cap.has_value() ? *cap : std::numeric_limits<int>::max();
}

double DesignConstraints::EffectiveBudget(double advisor_budget_pages) const {
  return std::min(advisor_budget_pages, storage_budget_pages);
}

void DesignConstraints::Pin(const IndexDef& index) {
  AddUnique(&pinned_indexes, index);
}
void DesignConstraints::Unpin(const IndexDef& index) {
  Remove(&pinned_indexes, index);
}
void DesignConstraints::Veto(const IndexDef& index) {
  AddUnique(&vetoed_indexes, index);
}
void DesignConstraints::Unveto(const IndexDef& index) {
  Remove(&vetoed_indexes, index);
}
void DesignConstraints::VetoColumn(const ColumnRef& column) {
  if (std::find(vetoed_columns.begin(), vetoed_columns.end(), column) ==
      vetoed_columns.end()) {
    vetoed_columns.push_back(column);
  }
}
void DesignConstraints::UnvetoColumn(const ColumnRef& column) {
  vetoed_columns.erase(
      std::remove(vetoed_columns.begin(), vetoed_columns.end(), column),
      vetoed_columns.end());
}

Status DesignConstraints::Validate(const Catalog& catalog) const {
  for (const IndexDef& idx : pinned_indexes) {
    Status s = CheckIndexIds(idx, catalog, "pinned");
    if (!s.ok()) return s;
  }
  for (const IndexDef& idx : vetoed_indexes) {
    Status s = CheckIndexIds(idx, catalog, "vetoed");
    if (!s.ok()) return s;
  }
  for (const ColumnRef& c : vetoed_columns) {
    if (c.table < 0 || c.table >= catalog.num_tables()) {
      return Status::InvalidArgument(
          StrFormat("vetoed column: table id %d out of range", c.table));
    }
    if (c.column < 0 || c.column >= catalog.table(c.table).num_columns()) {
      return Status::InvalidArgument(
          StrFormat("vetoed column: column id %d out of range for %s",
                    c.column, catalog.table(c.table).name().c_str()));
    }
  }
  // A pin and a veto on the same index is a contradiction the DBA must
  // resolve, not something to guess about.
  for (const IndexDef& idx : pinned_indexes) {
    if (IsVetoed(idx)) {
      return Status::InvalidArgument(
          "index " + idx.DisplayName(catalog) +
          " is both pinned and vetoed (directly or via a vetoed column)");
    }
  }
  std::map<TableId, int> pins_per_table;
  for (const IndexDef& idx : pinned_indexes) pins_per_table[idx.table]++;
  for (const auto& [table, cap] : max_indexes_per_table) {
    if (table < 0 || table >= catalog.num_tables()) {
      return Status::InvalidArgument(
          StrFormat("index cap: table id %d out of range", table));
    }
    if (cap < 0) {
      return Status::InvalidArgument(
          StrFormat("index cap for %s is negative",
                    catalog.table(table).name().c_str()));
    }
    auto it = pins_per_table.find(table);
    if (it != pins_per_table.end() && it->second > cap) {
      return Status::InvalidArgument(
          StrFormat("%d indexes pinned on %s but its cap is %d", it->second,
                    catalog.table(table).name().c_str(), cap));
    }
  }
  for (TableId t : partition_allowed_tables) {
    if (t < 0 || t >= catalog.num_tables()) {
      return Status::InvalidArgument(
          StrFormat("partition allow list: table id %d out of range", t));
    }
  }
  for (TableId t : partition_denied_tables) {
    if (t < 0 || t >= catalog.num_tables()) {
      return Status::InvalidArgument(
          StrFormat("partition deny list: table id %d out of range", t));
    }
  }
  // Written so NaN fails too; +inf (no budget) passes.
  if (!(storage_budget_pages >= 0.0)) {
    return Status::InvalidArgument("storage budget must be non-negative");
  }
  return Status::OK();
}

Json DesignConstraints::ToJson() const {
  Json j = Json::Object();
  j["pinned"] = IndexListToJson(pinned_indexes);
  j["vetoed"] = IndexListToJson(vetoed_indexes);
  Json cols = Json::Array();
  for (const ColumnRef& c : vetoed_columns) {
    Json col = Json::Object();
    col["table"] = Json::Number(c.table);
    col["column"] = Json::Number(c.column);
    cols.Append(std::move(col));
  }
  j["vetoed_columns"] = std::move(cols);
  Json caps = Json::Array();
  for (const auto& [table, cap] : max_indexes_per_table) {
    Json entry = Json::Object();
    entry["table"] = Json::Number(table);
    entry["cap"] = Json::Number(cap);
    caps.Append(std::move(entry));
  }
  j["table_caps"] = std::move(caps);
  if (std::isfinite(storage_budget_pages)) {
    j["storage_budget_pages"] = Json::Number(storage_budget_pages);
  }
  j["partitioning_enabled"] = Json::Bool(partitioning_enabled);
  j["partition_allowed"] = TableListToJson(partition_allowed_tables);
  j["partition_denied"] = TableListToJson(partition_denied_tables);
  return j;
}

Result<DesignConstraints> DesignConstraints::FromJson(const Json& j,
                                                      const Catalog& catalog) {
  if (!j.is_object()) return Status::ParseError("constraints must be an object");
  DesignConstraints c;
  if (const Json* pinned = j.Find("pinned")) {
    Status s = IndexListFromJson(*pinned, catalog, &c.pinned_indexes);
    if (!s.ok()) return s;
  }
  if (const Json* vetoed = j.Find("vetoed")) {
    Status s = IndexListFromJson(*vetoed, catalog, &c.vetoed_indexes);
    if (!s.ok()) return s;
  }
  if (const Json* cols = j.Find("vetoed_columns")) {
    if (!cols->is_array()) return Status::ParseError("vetoed_columns must be an array");
    for (const Json& item : cols->items()) {
      const Json* table = item.Find("table");
      const Json* column = item.Find("column");
      if (table == nullptr || column == nullptr) {
        return Status::ParseError("vetoed column needs table + column");
      }
      Result<TableId> t = TableIdFromJson(*table, catalog);
      if (!t.ok()) return t.status();
      Result<ColumnId> col = ColumnIdFromJson(*column, t.value(), catalog);
      if (!col.ok()) return col.status();
      c.vetoed_columns.push_back(ColumnRef{t.value(), col.value()});
    }
  }
  if (const Json* caps = j.Find("table_caps")) {
    if (!caps->is_array()) return Status::ParseError("table_caps must be an array");
    for (const Json& item : caps->items()) {
      const Json* table = item.Find("table");
      const Json* cap = item.Find("cap");
      if (table == nullptr || cap == nullptr) {
        return Status::ParseError("table cap needs table + cap");
      }
      Result<TableId> t = TableIdFromJson(*table, catalog);
      if (!t.ok()) return t.status();
      Result<int> n = JsonInt(*cap, 0, std::numeric_limits<int>::max(),
                              "index cap");
      if (!n.ok()) return n.status();
      c.max_indexes_per_table[t.value()] = n.value();
    }
  }
  if (const Json* budget = j.Find("storage_budget_pages")) {
    if (!budget->is_number()) return Status::ParseError("budget must be a number");
    c.storage_budget_pages = budget->number();
  }
  if (const Json* enabled = j.Find("partitioning_enabled")) {
    if (!enabled->is_bool()) return Status::ParseError("partitioning_enabled must be a bool");
    c.partitioning_enabled = enabled->bool_value();
  }
  if (const Json* allowed = j.Find("partition_allowed")) {
    Status s = TableListFromJson(*allowed, catalog, &c.partition_allowed_tables);
    if (!s.ok()) return s;
  }
  if (const Json* denied = j.Find("partition_denied")) {
    Status s = TableListFromJson(*denied, catalog, &c.partition_denied_tables);
    if (!s.ok()) return s;
  }
  Status s = c.Validate(catalog);
  if (!s.ok()) return s;
  return c;
}

bool ConstraintDelta::empty() const {
  return pin.empty() && unpin.empty() && veto.empty() && unveto.empty() &&
         veto_columns.empty() && unveto_columns.empty() &&
         !storage_budget_pages.has_value() && table_caps.empty() &&
         !partitioning_enabled.has_value() && allow_partitioning.empty() &&
         deny_partitioning.empty();
}

std::string ConstraintDelta::Describe(const Catalog& catalog) const {
  std::vector<std::string> parts;
  for (const IndexDef& idx : pin) {
    parts.push_back("PIN " + idx.DisplayName(catalog));
  }
  for (const IndexDef& idx : unpin) {
    parts.push_back("UNPIN " + idx.DisplayName(catalog));
  }
  for (const IndexDef& idx : veto) {
    parts.push_back("VETO " + idx.DisplayName(catalog));
  }
  for (const IndexDef& idx : unveto) {
    parts.push_back("UNVETO " + idx.DisplayName(catalog));
  }
  for (const ColumnRef& c : veto_columns) {
    parts.push_back("VETO COLUMN " + c.DisplayName(catalog));
  }
  for (const ColumnRef& c : unveto_columns) {
    parts.push_back("UNVETO COLUMN " + c.DisplayName(catalog));
  }
  if (storage_budget_pages.has_value()) {
    parts.push_back(std::isfinite(*storage_budget_pages)
                        ? StrFormat("BUDGET %.0f PAGES", *storage_budget_pages)
                        : "BUDGET UNLIMITED");
  }
  for (const auto& [table, cap] : table_caps) {
    parts.push_back(cap < 0
                        ? "UNCAP " + catalog.table(table).name()
                        : StrFormat("CAP %s %d",
                                    catalog.table(table).name().c_str(), cap));
  }
  if (partitioning_enabled.has_value()) {
    parts.push_back(*partitioning_enabled ? "PARTITIONING ON"
                                          : "PARTITIONING OFF");
  }
  for (TableId t : allow_partitioning) {
    parts.push_back("ALLOW PARTITION " + catalog.table(t).name());
  }
  for (TableId t : deny_partitioning) {
    parts.push_back("DENY PARTITION " + catalog.table(t).name());
  }
  return parts.empty() ? "NO-OP" : StrJoin(parts, ", ");
}

bool TightensIndexConstraints(const DesignConstraints& solved,
                              const DesignConstraints& now) {
  for (const IndexDef& pin : solved.pinned_indexes) {
    if (!now.IsPinned(pin)) return false;
  }
  for (const IndexDef& veto : solved.vetoed_indexes) {
    if (!Contains(now.vetoed_indexes, veto)) return false;
  }
  for (const ColumnRef& col : solved.vetoed_columns) {
    if (std::find(now.vetoed_columns.begin(), now.vetoed_columns.end(),
                  col) == now.vetoed_columns.end()) {
      return false;
    }
  }
  if (now.storage_budget_pages > solved.storage_budget_pages) return false;
  for (const auto& [table, cap] : solved.max_indexes_per_table) {
    std::optional<int> now_cap = now.TableCap(table);
    if (!now_cap.has_value() || *now_cap > cap) return false;
  }
  return true;
}

Status ApplyConstraintDelta(const ConstraintDelta& delta,
                            const Catalog& catalog,
                            DesignConstraints* constraints) {
  DesignConstraints next = *constraints;
  for (const IndexDef& idx : delta.unpin) next.Unpin(idx);
  for (const IndexDef& idx : delta.unveto) next.Unveto(idx);
  for (const ColumnRef& c : delta.unveto_columns) next.UnvetoColumn(c);
  for (const IndexDef& idx : delta.pin) next.Pin(idx);
  for (const IndexDef& idx : delta.veto) next.Veto(idx);
  for (const ColumnRef& c : delta.veto_columns) next.VetoColumn(c);
  if (delta.storage_budget_pages.has_value()) {
    next.storage_budget_pages = *delta.storage_budget_pages;
  }
  for (const auto& [table, cap] : delta.table_caps) {
    if (cap < 0) {
      next.max_indexes_per_table.erase(table);
    } else {
      next.max_indexes_per_table[table] = cap;
    }
  }
  if (delta.partitioning_enabled.has_value()) {
    next.partitioning_enabled = *delta.partitioning_enabled;
  }
  for (TableId t : delta.allow_partitioning) {
    if (std::find(next.partition_allowed_tables.begin(),
                  next.partition_allowed_tables.end(), t) ==
        next.partition_allowed_tables.end()) {
      next.partition_allowed_tables.push_back(t);
    }
    next.partition_denied_tables.erase(
        std::remove(next.partition_denied_tables.begin(),
                    next.partition_denied_tables.end(), t),
        next.partition_denied_tables.end());
  }
  for (TableId t : delta.deny_partitioning) {
    if (std::find(next.partition_denied_tables.begin(),
                  next.partition_denied_tables.end(), t) ==
        next.partition_denied_tables.end()) {
      next.partition_denied_tables.push_back(t);
    }
    next.partition_allowed_tables.erase(
        std::remove(next.partition_allowed_tables.begin(),
                    next.partition_allowed_tables.end(), t),
        next.partition_allowed_tables.end());
  }
  Status s = next.Validate(catalog);
  if (!s.ok()) return s;
  *constraints = std::move(next);
  return Status::OK();
}

}  // namespace dbdesign
