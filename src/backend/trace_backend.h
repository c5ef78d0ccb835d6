// TraceBackend: record/replay DbmsBackend.
//
// Record mode wraps another backend, forwards every call, and captures
// (a) a snapshot of the engine surface — catalog, statistics, cost
// parameters, materialized design — and (b) every cost call keyed by
// (query structural hash, design fingerprint, join knobs), and (c) the
// engine's answer to every EstimateIndexSize call, so a port whose
// engine sizes its own indexes replays those sizes rather than the
// catalog formula's. The trace serializes to JSON, format version 3:
// the design snapshot, every statistics value and every sized index go
// through catalog/design_json, the one design codec, so their ids are
// range-checked against the snapshot catalog as they are decoded. A
// trace of any other version is rejected; re-record it.
//
// Replay mode reconstructs the snapshot from JSON and answers cost
// calls and index sizes from the recorded maps — no engine, no storage,
// no optimizer round-trips. An index the recording never sized is sized
// by the catalog formula over the snapshot statistics. Tests and benches run against traces, and a trace from a
// real DBMS is the first artifact of a port: once the designer behaves
// identically on the trace, only this one implementation file remains.
//
// Replay limits: OptimizeQuery returns the recorded cost with a null
// plan tree (plans are not serialized), unrecorded calls return
// NotFound, and RefreshStatistics is an error (statistics are frozen).
//
// Thread safety: the recorded-call map and the replay call counter are
// mutex-guarded, so cost calls may arrive concurrently — a recorder
// wrapped around a parallel backend (or sitting underneath a parallel
// CostBatch/INUM run) captures a valid trace. Record mode additionally
// requires the inner backend's cost calls to be thread-safe.

#ifndef DBDESIGN_BACKEND_TRACE_BACKEND_H_
#define DBDESIGN_BACKEND_TRACE_BACKEND_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "util/thread_annotations.h"

namespace dbdesign {

class TraceBackend final : public DbmsBackend {
 public:
  /// Record mode: snapshots `inner`'s surface now; forwards and records
  /// all subsequent calls. `inner` must outlive the recorder.
  static std::unique_ptr<TraceBackend> Record(DbmsBackend& inner);

  /// Replay mode from a serialized trace.
  static Result<std::unique_ptr<TraceBackend>> FromJson(
      const std::string& json);
  static Result<std::unique_ptr<TraceBackend>> LoadFromFile(
      const std::string& path);

  /// Serializes the snapshot plus everything recorded so far. Valid in
  /// both modes (replaying a replayed trace is lossless).
  std::string ToJson() const;
  Status SaveToFile(const std::string& path) const;

  bool recording() const { return inner_ != nullptr; }
  size_t num_recorded_costs() const {
    MutexLock lock(mu_);
    return costs_.size();
  }

  // --- DbmsBackend ---
  std::string name() const override {
    return recording() ? "trace-record(" + source_name_ + ")"
                       : "trace-replay(" + source_name_ + ")";
  }
  const CostParams& cost_params() const override { return params_; }
  const Catalog& catalog() const override;
  const std::vector<TableStats>& all_stats() const override;
  Status RefreshStatistics(TableId table,
                           const AnalyzeOptions& options) override;
  PhysicalDesign CurrentDesign() const override;
  Result<PlanResult> OptimizeQuery(const BoundQuery& query,
                                   const PhysicalDesign& design,
                                   const PlannerKnobs& knobs) override;
  Result<double> CostQuery(const BoundQuery& query,
                           const PhysicalDesign& design,
                           const PlannerKnobs& knobs) override;
  Result<std::vector<double>> CostBatch(std::span<const BoundQuery> queries,
                                        const PhysicalDesign& design,
                                        const PlannerKnobs& knobs) override;
  IndexSizeEstimate EstimateIndexSize(const IndexDef& index) const override;
  JoinControlCapabilities join_control() const override { return caps_; }
  uint64_t num_optimizer_calls() const override;
  void ResetCallCount() override;

  /// The lookup key one cost call records under (exposed for tests).
  static std::string CallKey(const BoundQuery& query,
                             const PhysicalDesign& design,
                             const PlannerKnobs& knobs);

 private:
  TraceBackend() = default;

  DbmsBackend* inner_ = nullptr;  // record mode only
  std::string source_name_;
  CostParams params_;
  JoinControlCapabilities caps_;
  Catalog catalog_;                  // replay-mode snapshot
  std::vector<TableStats> stats_;    // replay-mode snapshot
  PhysicalDesign design_;            // materialized design at capture
  /// Guards costs_, index_sizes_ and calls_ against concurrent calls.
  mutable Mutex mu_;
  std::map<std::string, double> costs_ DBD_GUARDED_BY(mu_);
  /// Recorded by the const EstimateIndexSize, hence mutable.
  mutable std::map<IndexDef, IndexSizeEstimate> index_sizes_
      DBD_GUARDED_BY(mu_);
  uint64_t calls_ DBD_GUARDED_BY(mu_) = 0;
};

}  // namespace dbdesign

#endif  // DBDESIGN_BACKEND_TRACE_BACKEND_H_
