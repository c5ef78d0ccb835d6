// ResilientBackend: retry / deadline / circuit-breaker decorator.
//
// Sits between the designer stack and any fallible DbmsBackend (a
// real-DBMS port, or a FaultInjectingBackend in tests) and absorbs
// transient failures so the layers above only ever see either a clean
// answer or a final, honest Status:
//
//   * bounded retries with deterministic exponential backoff + seeded
//     jitter — the backoff schedule is a pure function of (policy,
//     call key, attempt number), advanced on a Clock (virtual in
//     tests), so runs are bit-identical at any thread count;
//   * per-call and per-batch deadlines checked against the Clock —
//     a call that takes too long becomes kDeadlineExceeded (retryable);
//   * partial-batch salvage — when CostBatchPartial dies mid-flight,
//     the completed prefix is kept and only the tail is retried;
//   * answer validation — non-finite or negative costs from the
//     backend are rejected as retryable failures (a real connection
//     can return garbage mid-crash), so poison never crosses the seam;
//   * a circuit breaker that trips to fail-fast after
//     `breaker_threshold` consecutive *final* failures (retries
//     exhausted), and half-opens after a cooldown to probe recovery —
//     a dead backend costs callers one cheap refusal, not a retry
//     storm.
//
// Retry decisions go through Status::IsRetryable() exclusively;
// permanent errors (bad argument, unknown trace key, ...) propagate
// immediately. All shared state (stats, breaker) is on an annotated
// Mutex. This is the only place in the tree allowed to loop on a
// backend error or sleep — the determinism linter enforces that.

#ifndef DBDESIGN_BACKEND_RESILIENT_BACKEND_H_
#define DBDESIGN_BACKEND_RESILIENT_BACKEND_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace dbdesign {

/// Retry/deadline/breaker knobs. Defaults recover from short transient
/// bursts (4 attempts, ~1→8 ms virtual backoff) without masking a dead
/// backend for long (breaker trips after 8 straight giveups).
struct RetryPolicy {
  /// Total tries per call, first included. 1 = no retries.
  int max_attempts = 4;
  uint64_t initial_backoff_micros = 1000;
  uint64_t max_backoff_micros = 64000;
  double backoff_multiplier = 2.0;
  /// Jitter in [0, fraction) of the backoff, drawn deterministically
  /// from (jitter_seed, call key, attempt) — no shared RNG state, so
  /// concurrent callers cannot perturb each other's schedules.
  double jitter_fraction = 0.25;
  uint64_t jitter_seed = 0x5eedu;
  /// Elapsed-Clock budget for one logical call including its retries
  /// and backoff (0 = unlimited).
  uint64_t call_deadline_micros = 0;
  /// Same, for one logical CostBatch including tail retries.
  uint64_t batch_deadline_micros = 0;
  /// Consecutive final failures (not attempts) before the breaker
  /// opens. <= 0 disables the breaker.
  int breaker_threshold = 8;
  /// How long an open breaker fails fast before half-opening a probe.
  uint64_t breaker_cooldown_micros = 100000;
};

/// Counters exposed for tests and benches. Snapshot via stats().
struct ResilienceStats {
  uint64_t calls = 0;              ///< logical calls (not attempts)
  uint64_t attempts = 0;           ///< inner-backend attempts issued
  uint64_t retries = 0;            ///< attempts beyond the first
  uint64_t recoveries = 0;         ///< calls that failed then succeeded
  uint64_t giveups = 0;            ///< calls that exhausted retries
  uint64_t permanent_failures = 0; ///< non-retryable, no retry issued
  uint64_t deadline_exceeded = 0;  ///< deadline conversions
  uint64_t poisoned_rejected = 0;  ///< garbage costs rejected
  uint64_t batches_salvaged = 0;   ///< batches that kept a prefix
  uint64_t results_salvaged = 0;   ///< prefix results kept across retries
  uint64_t breaker_trips = 0;      ///< closed/half-open -> open
  uint64_t breaker_probes = 0;     ///< half-open probe calls allowed
  uint64_t breaker_fast_fails = 0; ///< calls refused while open
};

class ResilientBackend final : public DbmsBackend {
 public:
  /// Wraps `inner` (must outlive this). `clock` drives backoff and
  /// deadlines; pass the same VirtualClock as the fault layer in
  /// tests. If null, the backend owns a private VirtualClock.
  ResilientBackend(DbmsBackend& inner, RetryPolicy policy,
                   Clock* clock = nullptr);

  const RetryPolicy& policy() const { return policy_; }
  ResilienceStats stats() const;
  void ResetStats();

  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const;

  // --- DbmsBackend ---
  std::string name() const override {
    return "resilient(" + inner_->name() + ")";
  }
  const CostParams& cost_params() const override {
    return inner_->cost_params();
  }
  const Catalog& catalog() const override { return inner_->catalog(); }
  const std::vector<TableStats>& all_stats() const override {
    return inner_->all_stats();
  }
  Status RefreshStatistics(TableId table,
                           const AnalyzeOptions& options) override;
  IndexSizeEstimate EstimateIndexSize(const IndexDef& index) const override {
    return inner_->EstimateIndexSize(index);
  }
  PhysicalDesign CurrentDesign() const override {
    return inner_->CurrentDesign();
  }
  Result<PlanResult> OptimizeQuery(const BoundQuery& query,
                                   const PhysicalDesign& design,
                                   const PlannerKnobs& knobs) override;
  Result<double> CostQuery(const BoundQuery& query,
                           const PhysicalDesign& design,
                           const PlannerKnobs& knobs) override;
  Result<std::vector<double>> CostBatch(std::span<const BoundQuery> queries,
                                        const PhysicalDesign& design,
                                        const PlannerKnobs& knobs) override;
  PartialCosts CostBatchPartial(std::span<const BoundQuery> queries,
                                const PhysicalDesign& design,
                                const PlannerKnobs& knobs) override;
  JoinControlCapabilities join_control() const override {
    return inner_->join_control();
  }
  uint64_t num_optimizer_calls() const override {
    return inner_->num_optimizer_calls();
  }
  void ResetCallCount() override { inner_->ResetCallCount(); }

 private:
  /// Deterministic backoff for `attempt` (0-based retry index) of the
  /// call identified by `key_hash`: exponential + seeded jitter,
  /// capped at max_backoff_micros.
  uint64_t BackoffMicros(uint64_t key_hash, int attempt) const;

  /// Generic retry driver: runs `attempt_fn` (which performs one inner
  /// attempt and returns its Status) up to max_attempts times with
  /// backoff, under `deadline_micros`. Handles breaker gating and all
  /// counter updates. `op_key` identifies the logical call for jitter.
  Status RunWithRetries(const std::string& op_key, uint64_t deadline_micros,
                        const std::function<Status()>& attempt_fn);

  /// Breaker admission: OK to proceed, or a fast-fail Unavailable.
  /// Sets *probe when this call is the half-open probe.
  Status BreakerAdmit(bool* probe);
  void RecordOutcome(bool success, bool probe, bool retried);

  /// Validates a backend cost answer; non-finite/negative becomes a
  /// retryable Unavailable.
  Status ValidateCost(double cost);

  DbmsBackend* inner_;
  const RetryPolicy policy_;
  VirtualClock own_clock_;
  Clock* clock_;

  mutable Mutex mu_;
  ResilienceStats stats_ DBD_GUARDED_BY(mu_);
  BreakerState breaker_ DBD_GUARDED_BY(mu_) = BreakerState::kClosed;
  int consecutive_giveups_ DBD_GUARDED_BY(mu_) = 0;
  uint64_t open_until_micros_ DBD_GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ DBD_GUARDED_BY(mu_) = false;
};

}  // namespace dbdesign

#endif  // DBDESIGN_BACKEND_RESILIENT_BACKEND_H_
