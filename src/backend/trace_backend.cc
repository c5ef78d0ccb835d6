#include "backend/trace_backend.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "catalog/design_json.h"
#include "util/json.h"

namespace dbdesign {

namespace {

// Version 2: design and statistics values use the catalog/design_json
// encoding. Version 3: the engine's index sizes are recorded.
constexpr int kTraceVersion = 3;

std::string KnobsKey(const PlannerKnobs& k) {
  std::string s(8, '0');
  s[0] = k.enable_seqscan ? '1' : '0';
  s[1] = k.enable_indexscan ? '1' : '0';
  s[2] = k.enable_indexonlyscan ? '1' : '0';
  s[3] = k.enable_nestloop ? '1' : '0';
  s[4] = k.enable_indexnestloop ? '1' : '0';
  s[5] = k.enable_hashjoin ? '1' : '0';
  s[6] = k.enable_mergejoin ? '1' : '0';
  s[7] = k.enable_sort ? '1' : '0';
  return s;
}

Json ColumnStatsToJson(const ColumnStats& c) {
  Json j = Json::Object();
  j["n_distinct"] = Json::Number(c.n_distinct);
  j["null_frac"] = Json::Number(c.null_frac);
  j["min"] = ValueToJson(c.min);
  j["max"] = ValueToJson(c.max);
  j["correlation"] = Json::Number(c.correlation);
  Json hist = Json::Array();
  for (const Value& v : c.histogram) hist.Append(ValueToJson(v));
  j["histogram"] = std::move(hist);
  Json mcv = Json::Array();
  for (const McvEntry& e : c.mcv) {
    Json m = Json::Object();
    m["v"] = ValueToJson(e.value);
    m["f"] = Json::Number(e.frequency);
    mcv.Append(std::move(m));
  }
  j["mcv"] = std::move(mcv);
  return j;
}

Result<ColumnStats> ColumnStatsFromJson(const Json& j) {
  ColumnStats c;
  if (const Json* v = j.Find("n_distinct")) c.n_distinct = v->number();
  if (const Json* v = j.Find("null_frac")) c.null_frac = v->number();
  if (const Json* v = j.Find("correlation")) c.correlation = v->number();
  if (const Json* v = j.Find("min")) {
    Result<Value> r = ValueFromJson(*v);
    if (!r.ok()) return r.status();
    c.min = r.value();
  }
  if (const Json* v = j.Find("max")) {
    Result<Value> r = ValueFromJson(*v);
    if (!r.ok()) return r.status();
    c.max = r.value();
  }
  if (const Json* v = j.Find("histogram")) {
    for (const Json& h : v->items()) {
      Result<Value> r = ValueFromJson(h);
      if (!r.ok()) return r.status();
      c.histogram.push_back(r.value());
    }
  }
  if (const Json* v = j.Find("mcv")) {
    for (const Json& m : v->items()) {
      const Json* mv = m.Find("v");
      const Json* mf = m.Find("f");
      if (mv == nullptr || mf == nullptr) {
        return Status::ParseError("bad mcv entry in trace");
      }
      Result<Value> r = ValueFromJson(*mv);
      if (!r.ok()) return r.status();
      c.mcv.push_back(McvEntry{r.value(), mf->number()});
    }
  }
  return c;
}

Json IndexSizeToJson(const IndexDef& index, const IndexSizeEstimate& size) {
  Json j = Json::Object();
  j["index"] = IndexDefToJson(index);
  j["leaf_pages"] = Json::Number(size.leaf_pages);
  j["internal_pages"] = Json::Number(size.internal_pages);
  j["height"] = Json::Number(size.height);
  return j;
}

/// One recorded index size; every member must be a finite, nonnegative
/// number.
Status IndexSizeFromJson(const Json& j, const Catalog& catalog,
                         IndexDef* index, IndexSizeEstimate* size) {
  const Json* def = j.Find("index");
  if (def == nullptr) return Status::ParseError("index size entry lacks index");
  Result<IndexDef> decoded = IndexDefFromJson(*def, catalog);
  if (!decoded.ok()) return decoded.status();
  *index = std::move(decoded).value();
  for (auto [key, out] : {std::pair{"leaf_pages", &size->leaf_pages},
                          std::pair{"internal_pages", &size->internal_pages},
                          std::pair{"height", &size->height}}) {
    const Json* v = j.Find(key);
    if (v == nullptr || !v->is_number() || !std::isfinite(v->number()) ||
        v->number() < 0.0) {
      return Status::ParseError(std::string("index size ") + key +
                                " must be a finite nonnegative number");
    }
    *out = v->number();
  }
  return Status::OK();
}

Result<DataType> DataTypeFromName(const std::string& name) {
  if (name == "int64") return DataType::kInt64;
  if (name == "double") return DataType::kDouble;
  if (name == "string") return DataType::kString;
  return Status::ParseError("unknown data type in trace: " + name);
}

/// The design/knobs part of a call key — computed once per batch.
std::string CallKeySuffix(const PhysicalDesign& design,
                          const PlannerKnobs& knobs) {
  // Appended piecewise: GCC 12 reports a false -Wrestrict on the
  // equivalent operator+ chain here.
  std::string suffix = "|";
  suffix += design.Fingerprint();
  suffix += '|';
  suffix += KnobsKey(knobs);
  return suffix;
}

std::string CallKeyWithSuffix(const BoundQuery& query,
                              const std::string& suffix) {
  char qh[20];
  std::snprintf(qh, sizeof(qh), "%016" PRIx64, query.StructuralHash());
  return std::string(qh) + suffix;
}

}  // namespace

std::string TraceBackend::CallKey(const BoundQuery& query,
                                  const PhysicalDesign& design,
                                  const PlannerKnobs& knobs) {
  return CallKeyWithSuffix(query, CallKeySuffix(design, knobs));
}

std::unique_ptr<TraceBackend> TraceBackend::Record(DbmsBackend& inner) {
  auto t = std::unique_ptr<TraceBackend>(new TraceBackend());
  t->inner_ = &inner;
  t->source_name_ = inner.name();
  t->params_ = inner.cost_params();
  t->caps_ = inner.join_control();
  t->design_ = inner.CurrentDesign();
  return t;
}

const Catalog& TraceBackend::catalog() const {
  return recording() ? inner_->catalog() : catalog_;
}

const std::vector<TableStats>& TraceBackend::all_stats() const {
  return recording() ? inner_->all_stats() : stats_;
}

Status TraceBackend::RefreshStatistics(TableId table,
                                       const AnalyzeOptions& options) {
  if (recording()) return inner_->RefreshStatistics(table, options);
  return Status::Unimplemented("statistics are frozen in a replayed trace");
}

PhysicalDesign TraceBackend::CurrentDesign() const {
  return recording() ? inner_->CurrentDesign() : design_;
}

IndexSizeEstimate TraceBackend::EstimateIndexSize(
    const IndexDef& index) const {
  if (recording()) {
    IndexSizeEstimate size = inner_->EstimateIndexSize(index);
    MutexLock lock(mu_);
    index_sizes_[index] = size;
    return size;
  }
  {
    MutexLock lock(mu_);
    auto it = index_sizes_.find(index);
    if (it != index_sizes_.end()) return it->second;
  }
  return DbmsBackend::EstimateIndexSize(index);
}

uint64_t TraceBackend::num_optimizer_calls() const {
  if (recording()) return inner_->num_optimizer_calls();
  MutexLock lock(mu_);
  return calls_;
}

void TraceBackend::ResetCallCount() {
  if (recording()) {
    inner_->ResetCallCount();
  } else {
    MutexLock lock(mu_);
    calls_ = 0;
  }
}

Result<PlanResult> TraceBackend::OptimizeQuery(const BoundQuery& query,
                                               const PhysicalDesign& design,
                                               const PlannerKnobs& knobs) {
  std::string key = CallKey(query, design, knobs);
  if (recording()) {
    Result<PlanResult> r = inner_->OptimizeQuery(query, design, knobs);
    if (r.ok()) {
      MutexLock lock(mu_);
      costs_[key] = r.value().cost;
    }
    return r;
  }
  MutexLock lock(mu_);
  auto it = costs_.find(key);
  if (it == costs_.end()) {
    return Status::NotFound("trace has no recording for call " + key);
  }
  // Replay serves the recorded cost; plan trees are not serialized, and
  // no optimizer runs (the call counter stays at zero).
  return PlanResult{nullptr, it->second};
}

Result<double> TraceBackend::CostQuery(const BoundQuery& query,
                                       const PhysicalDesign& design,
                                       const PlannerKnobs& knobs) {
  std::string key = CallKey(query, design, knobs);
  if (recording()) {
    Result<double> r = inner_->CostQuery(query, design, knobs);
    if (r.ok()) {
      MutexLock lock(mu_);
      costs_[key] = r.value();
    }
    return r;
  }
  MutexLock lock(mu_);
  auto it = costs_.find(key);
  if (it == costs_.end()) {
    return Status::NotFound("trace has no recording for call " + key);
  }
  return it->second;
}

Result<std::vector<double>> TraceBackend::CostBatch(
    std::span<const BoundQuery> queries, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  std::string suffix = CallKeySuffix(design, knobs);
  if (recording()) {
    Result<std::vector<double>> r = inner_->CostBatch(queries, design, knobs);
    if (r.ok()) {
      MutexLock lock(mu_);
      for (size_t i = 0; i < queries.size(); ++i) {
        costs_[CallKeyWithSuffix(queries[i], suffix)] = r.value()[i];
      }
    }
    return r;
  }
  // Replay: one map lookup per query, no optimizer anywhere.
  std::vector<double> costs;
  costs.reserve(queries.size());
  MutexLock lock(mu_);
  for (const BoundQuery& q : queries) {
    auto it = costs_.find(CallKeyWithSuffix(q, suffix));
    if (it == costs_.end()) {
      return Status::NotFound("trace has no recording for a batched call");
    }
    costs.push_back(it->second);
  }
  return costs;
}

std::string TraceBackend::ToJson() const {
  const Catalog& cat = catalog();
  const std::vector<TableStats>& stats = all_stats();

  Json root = Json::Object();
  root["version"] = Json::Number(kTraceVersion);
  root["source"] = Json::Str(source_name_);

  Json params = Json::Object();
  params["seq_page_cost"] = Json::Number(params_.seq_page_cost);
  params["random_page_cost"] = Json::Number(params_.random_page_cost);
  params["cpu_tuple_cost"] = Json::Number(params_.cpu_tuple_cost);
  params["cpu_index_tuple_cost"] = Json::Number(params_.cpu_index_tuple_cost);
  params["cpu_operator_cost"] = Json::Number(params_.cpu_operator_cost);
  params["effective_cache_size_pages"] =
      Json::Number(params_.effective_cache_size_pages);
  params["work_mem_bytes"] = Json::Number(params_.work_mem_bytes);
  params["min_rows"] = Json::Number(params_.min_rows);
  root["cost_params"] = std::move(params);

  Json caps = Json::Object();
  caps["nested_loop"] = Json::Bool(caps_.nested_loop);
  caps["index_nested_loop"] = Json::Bool(caps_.index_nested_loop);
  caps["hash_join"] = Json::Bool(caps_.hash_join);
  caps["merge_join"] = Json::Bool(caps_.merge_join);
  root["join_control"] = std::move(caps);

  Json tables = Json::Array();
  for (TableId t = 0; t < cat.num_tables(); ++t) {
    const TableDef& def = cat.table(t);
    Json jt = Json::Object();
    jt["name"] = Json::Str(def.name());
    Json cols = Json::Array();
    for (const ColumnDef& c : def.columns()) {
      Json jc = Json::Object();
      jc["name"] = Json::Str(c.name);
      jc["type"] = Json::Str(DataTypeName(c.type));
      jc["avg_width"] = Json::Number(c.avg_width);
      cols.Append(std::move(jc));
    }
    jt["columns"] = std::move(cols);
    tables.Append(std::move(jt));
  }
  root["catalog"] = std::move(tables);

  Json jstats = Json::Array();
  for (const TableStats& ts : stats) {
    Json jt = Json::Object();
    jt["row_count"] = Json::Number(ts.row_count);
    Json cols = Json::Array();
    for (const ColumnStats& cs : ts.columns) cols.Append(ColumnStatsToJson(cs));
    jt["columns"] = std::move(cols);
    jstats.Append(std::move(jt));
  }
  root["stats"] = std::move(jstats);

  root["design"] = PhysicalDesignToJson(CurrentDesign());

  Json calls = Json::Object();
  Json sizes = Json::Array();
  {
    MutexLock lock(mu_);
    for (const auto& [key, cost] : costs_) calls[key] = Json::Number(cost);
    for (const auto& [index, size] : index_sizes_) {
      sizes.Append(IndexSizeToJson(index, size));
    }
  }
  root["cost_calls"] = std::move(calls);
  root["index_sizes"] = std::move(sizes);

  return root.Dump();
}

Result<std::unique_ptr<TraceBackend>> TraceBackend::FromJson(
    const std::string& json) {
  Result<Json> parsed = Json::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const Json& root = parsed.value();
  if (!root.is_object()) return Status::ParseError("trace root must be an object");

  const Json* version = root.Find("version");
  if (version == nullptr) return Status::ParseError("trace missing version");
  Result<int> ver = JsonInt(*version, 0, std::numeric_limits<int>::max(),
                            "trace version");
  if (!ver.ok()) return ver.status();
  if (ver.value() != kTraceVersion) {
    return Status::ParseError(
        "unsupported trace version " + std::to_string(ver.value()) +
        " (expected " + std::to_string(kTraceVersion) + ")");
  }

  auto t = std::unique_ptr<TraceBackend>(new TraceBackend());
  if (const Json* s = root.Find("source")) t->source_name_ = s->str();

  if (const Json* p = root.Find("cost_params")) {
    auto num = [&](const char* key, double* out) {
      if (const Json* v = p->Find(key)) *out = v->number();
    };
    num("seq_page_cost", &t->params_.seq_page_cost);
    num("random_page_cost", &t->params_.random_page_cost);
    num("cpu_tuple_cost", &t->params_.cpu_tuple_cost);
    num("cpu_index_tuple_cost", &t->params_.cpu_index_tuple_cost);
    num("cpu_operator_cost", &t->params_.cpu_operator_cost);
    num("effective_cache_size_pages", &t->params_.effective_cache_size_pages);
    num("work_mem_bytes", &t->params_.work_mem_bytes);
    num("min_rows", &t->params_.min_rows);
  }

  if (const Json* c = root.Find("join_control")) {
    auto flag = [&](const char* key, bool* out) {
      if (const Json* v = c->Find(key)) *out = v->bool_value();
    };
    flag("nested_loop", &t->caps_.nested_loop);
    flag("index_nested_loop", &t->caps_.index_nested_loop);
    flag("hash_join", &t->caps_.hash_join);
    flag("merge_join", &t->caps_.merge_join);
  }

  const Json* tables = root.Find("catalog");
  if (tables == nullptr || !tables->is_array()) {
    return Status::ParseError("trace missing catalog");
  }
  for (const Json& jt : tables->items()) {
    const Json* name = jt.Find("name");
    const Json* cols = jt.Find("columns");
    if (name == nullptr || cols == nullptr) {
      return Status::ParseError("bad table entry in trace");
    }
    std::vector<ColumnDef> defs;
    for (const Json& jc : cols->items()) {
      ColumnDef cd;
      if (const Json* n = jc.Find("name")) cd.name = n->str();
      if (const Json* ty = jc.Find("type")) {
        Result<DataType> dt = DataTypeFromName(ty->str());
        if (!dt.ok()) return dt.status();
        cd.type = dt.value();
      }
      if (const Json* w = jc.Find("avg_width")) {
        Result<int> width =
            JsonInt(*w, 0, std::numeric_limits<int>::max(), "avg_width");
        if (!width.ok()) return width.status();
        cd.avg_width = width.value();
      }
      defs.push_back(std::move(cd));
    }
    Result<TableId> added = t->catalog_.AddTable(TableDef(name->str(), defs));
    if (!added.ok()) return added.status();
  }

  const Json* jstats = root.Find("stats");
  if (jstats == nullptr || !jstats->is_array()) {
    return Status::ParseError("trace missing stats");
  }
  for (const Json& jt : jstats->items()) {
    TableStats ts;
    if (const Json* rc = jt.Find("row_count")) ts.row_count = rc->number();
    if (const Json* cols = jt.Find("columns")) {
      for (const Json& jc : cols->items()) {
        Result<ColumnStats> cs = ColumnStatsFromJson(jc);
        if (!cs.ok()) return cs.status();
        ts.columns.push_back(std::move(cs.value()));
      }
    }
    t->stats_.push_back(std::move(ts));
  }
  if (static_cast<int>(t->stats_.size()) != t->catalog_.num_tables()) {
    return Status::ParseError("trace stats/catalog table count mismatch");
  }
  for (TableId tab = 0; tab < t->catalog_.num_tables(); ++tab) {
    if (static_cast<int>(t->stats_[static_cast<size_t>(tab)].columns.size()) !=
        t->catalog_.table(tab).num_columns()) {
      return Status::ParseError("trace stats/catalog column count mismatch "
                                "for table " + t->catalog_.table(tab).name());
    }
  }

  if (const Json* d = root.Find("design")) {
    Result<PhysicalDesign> design = PhysicalDesignFromJson(*d, t->catalog_);
    if (!design.ok()) return design.status();
    t->design_ = std::move(design).value();
  }

  if (const Json* calls = root.Find("cost_calls")) {
    for (const auto& [key, value] : calls->members()) {
      if (!value.is_number()) {
        return Status::ParseError("trace cost for call " + key +
                                  " must be a number");
      }
      t->costs_[key] = value.number();
    }
  }

  if (const Json* sizes = root.Find("index_sizes")) {
    if (!sizes->is_array()) {
      return Status::ParseError("trace index_sizes must be an array");
    }
    for (const Json& entry : sizes->items()) {
      IndexDef index;
      IndexSizeEstimate size;
      Status st = IndexSizeFromJson(entry, t->catalog_, &index, &size);
      if (!st.ok()) return st;
      t->index_sizes_[index] = size;
    }
  }

  return t;
}

Status TraceBackend::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << ToJson();
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<std::unique_ptr<TraceBackend>> TraceBackend::LoadFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open trace file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJson(buf.str());
}

}  // namespace dbdesign
