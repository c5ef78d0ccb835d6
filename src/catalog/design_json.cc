#include "catalog/design_json.h"

#include <cerrno>
#include <cstdlib>

#include "util/str.h"

namespace dbdesign {

namespace {

const Json* Require(const Json& j, const char* key, Status* status) {
  const Json* member = j.Find(key);
  if (member == nullptr && status->ok()) {
    *status = Status::ParseError(std::string("missing member '") + key + "'");
  }
  return member;
}

}  // namespace

Result<TableId> TableIdFromJson(const Json& j, const Catalog& catalog) {
  return JsonInt(j, 0, catalog.num_tables() - 1, "table id");
}

Result<ColumnId> ColumnIdFromJson(const Json& j, TableId table,
                                  const Catalog& catalog) {
  return JsonInt(j, 0, catalog.table(table).num_columns() - 1, "column id");
}

Json ValueToJson(const Value& v) {
  Json j = Json::Object();
  switch (v.type()) {
    case DataType::kInt64:
      j["t"] = Json::Str("i");
      // Stringified to round-trip the full 64-bit range (Json numbers
      // are IEEE doubles).
      j["v"] = Json::Str(StrFormat("%lld", static_cast<long long>(v.AsInt())));
      break;
    case DataType::kDouble:
      j["t"] = Json::Str("d");
      j["v"] = Json::Number(v.AsDouble());
      break;
    case DataType::kString:
      j["t"] = Json::Str("s");
      j["v"] = Json::Str(v.AsString());
      break;
  }
  return j;
}

Result<Value> ValueFromJson(const Json& j) {
  Status status;
  const Json* t = Require(j, "t", &status);
  const Json* v = Require(j, "v", &status);
  if (!status.ok()) return status;
  if (!t->is_string()) return Status::ParseError("value 't' must be a string");
  if (t->str() == "i") {
    if (!v->is_string()) {
      return Status::ParseError("int64 value must be encoded as a string");
    }
    const char* text = v->str().c_str();
    char* end = nullptr;
    errno = 0;
    long long i = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
      return Status::ParseError("bad int64 value: '" + v->str() + "'");
    }
    return Value(static_cast<int64_t>(i));
  }
  if (t->str() == "d") {
    if (!v->is_number()) return Status::ParseError("double value expected");
    return Value(v->number());
  }
  if (t->str() == "s") {
    if (!v->is_string()) return Status::ParseError("string value expected");
    return Value(v->str());
  }
  return Status::ParseError("unknown value type '" + t->str() + "'");
}

Json IndexDefToJson(const IndexDef& index) {
  Json j = Json::Object();
  j["table"] = Json::Number(index.table);
  Json cols = Json::Array();
  for (ColumnId c : index.columns) cols.Append(Json::Number(c));
  j["columns"] = std::move(cols);
  if (index.unique) j["unique"] = Json::Bool(true);
  return j;
}

Result<IndexDef> IndexDefFromJson(const Json& j, const Catalog& catalog) {
  Status status;
  const Json* table = Require(j, "table", &status);
  const Json* columns = Require(j, "columns", &status);
  if (!status.ok()) return status;
  if (!columns->is_array()) {
    return Status::ParseError("index columns must be an array");
  }
  IndexDef index;
  Result<TableId> t = TableIdFromJson(*table, catalog);
  if (!t.ok()) return t.status();
  index.table = t.value();
  for (const Json& c : columns->items()) {
    Result<ColumnId> col = ColumnIdFromJson(c, index.table, catalog);
    if (!col.ok()) return col.status();
    index.columns.push_back(col.value());
  }
  if (index.columns.empty()) {
    return Status::InvalidArgument("index must have at least one column");
  }
  if (const Json* unique = j.Find("unique")) {
    index.unique = unique->is_bool() && unique->bool_value();
  }
  return index;
}

Json VerticalPartitioningToJson(const VerticalPartitioning& p) {
  Json j = Json::Object();
  j["table"] = Json::Number(p.table);
  Json frags = Json::Array();
  for (const VerticalFragment& f : p.fragments) {
    Json cols = Json::Array();
    for (ColumnId c : f.columns) cols.Append(Json::Number(c));
    frags.Append(std::move(cols));
  }
  j["fragments"] = std::move(frags);
  return j;
}

Result<VerticalPartitioning> VerticalPartitioningFromJson(
    const Json& j, const Catalog& catalog) {
  Status status;
  const Json* table = Require(j, "table", &status);
  const Json* fragments = Require(j, "fragments", &status);
  if (!status.ok()) return status;
  if (!fragments->is_array()) {
    return Status::ParseError("vertical fragments must be an array");
  }
  VerticalPartitioning p;
  Result<TableId> t = TableIdFromJson(*table, catalog);
  if (!t.ok()) return t.status();
  p.table = t.value();
  for (const Json& frag : fragments->items()) {
    if (!frag.is_array()) return Status::ParseError("fragment must be an array");
    VerticalFragment f;
    for (const Json& c : frag.items()) {
      Result<ColumnId> col = ColumnIdFromJson(c, p.table, catalog);
      if (!col.ok()) return col.status();
      f.columns.push_back(col.value());
    }
    p.fragments.push_back(std::move(f));
  }
  return p;
}

Json HorizontalPartitioningToJson(const HorizontalPartitioning& p) {
  Json j = Json::Object();
  j["table"] = Json::Number(p.table);
  j["column"] = Json::Number(p.column);
  Json bounds = Json::Array();
  for (const Value& b : p.bounds) bounds.Append(ValueToJson(b));
  j["bounds"] = std::move(bounds);
  return j;
}

Result<HorizontalPartitioning> HorizontalPartitioningFromJson(
    const Json& j, const Catalog& catalog) {
  Status status;
  const Json* table = Require(j, "table", &status);
  const Json* column = Require(j, "column", &status);
  const Json* bounds = Require(j, "bounds", &status);
  if (!status.ok()) return status;
  if (!bounds->is_array()) {
    return Status::ParseError("horizontal bounds must be an array");
  }
  HorizontalPartitioning p;
  Result<TableId> t = TableIdFromJson(*table, catalog);
  if (!t.ok()) return t.status();
  p.table = t.value();
  Result<ColumnId> col = ColumnIdFromJson(*column, p.table, catalog);
  if (!col.ok()) return col.status();
  p.column = col.value();
  for (const Json& b : bounds->items()) {
    Result<Value> v = ValueFromJson(b);
    if (!v.ok()) return v.status();
    p.bounds.push_back(std::move(v).value());
  }
  return p;
}

Json PhysicalDesignToJson(const PhysicalDesign& design) {
  Json j = Json::Object();
  Json indexes = Json::Array();
  for (const IndexDef& idx : design.indexes()) {
    indexes.Append(IndexDefToJson(idx));
  }
  j["indexes"] = std::move(indexes);
  Json vertical = Json::Array();
  for (const auto& [t, vp] : design.verticals()) {
    vertical.Append(VerticalPartitioningToJson(vp));
  }
  Json horizontal = Json::Array();
  for (const auto& [t, hp] : design.horizontals()) {
    horizontal.Append(HorizontalPartitioningToJson(hp));
  }
  j["vertical"] = std::move(vertical);
  j["horizontal"] = std::move(horizontal);
  return j;
}

Result<PhysicalDesign> PhysicalDesignFromJson(const Json& j,
                                              const Catalog& catalog) {
  Status status;
  const Json* indexes = Require(j, "indexes", &status);
  if (!status.ok()) return status;
  if (!indexes->is_array()) return Status::ParseError("'indexes' must be an array");
  PhysicalDesign design;
  for (const Json& idx : indexes->items()) {
    Result<IndexDef> def = IndexDefFromJson(idx, catalog);
    if (!def.ok()) return def.status();
    design.AddIndex(def.value());
  }
  if (const Json* vertical = j.Find("vertical")) {
    for (const Json& vp : vertical->items()) {
      Result<VerticalPartitioning> p = VerticalPartitioningFromJson(vp, catalog);
      if (!p.ok()) return p.status();
      design.SetVerticalPartitioning(std::move(p).value());
    }
  }
  if (const Json* horizontal = j.Find("horizontal")) {
    for (const Json& hp : horizontal->items()) {
      Result<HorizontalPartitioning> p =
          HorizontalPartitioningFromJson(hp, catalog);
      if (!p.ok()) return p.status();
      design.SetHorizontalPartitioning(std::move(p).value());
    }
  }
  return design;
}

}  // namespace dbdesign
