// FaultInjectingBackend: deterministic fault injection at the seam.
//
// Every in-tree backend is infallible, so the error paths a real-DBMS
// port lives on (timeouts, dropped connections, batches dying
// mid-flight, garbage answers) never execute. This decorator wraps any
// DbmsBackend and injects those failures *deterministically*: every
// fault decision is a pure function of (FaultPlan seed, call-content
// key, per-key attempt number), never of wall time or thread
// interleaving. Two runs with the same plan see byte-identical fault
// schedules, at any thread count — so a test can assert that the
// resilience layer recovers to the bit-identical fault-free answer.
//
// Fault modes (independently mixable via FaultPlan):
//   * transient errors  — a seeded fraction of call keys fail with
//     Unavailable for their first `transient_burst` attempts, then
//     succeed (models a flaky connection; recovery is guaranteed once
//     retries >= burst).
//   * latency / overrun — every call sleeps `latency_micros` on the
//     shared Clock; a seeded fraction additionally sleep
//     `overrun_micros` on early attempts (models a stuck backend; with
//     a ResilientBackend deadline this becomes kDeadlineExceeded).
//   * batch crash       — a seeded fraction of CostBatch calls return
//     only the first k costs plus Unavailable (k derived from the
//     batch key), exercising partial-batch salvage.
//   * poisoned costs    — a seeded fraction of cost answers come back
//     NaN or negative for early attempts; the seam above must *reject*
//     these (PR 4 non-finite handling), never propagate them.
//   * outage            — every call fails with Unavailable, no
//     recovery (models the backend being down entirely).

#ifndef DBDESIGN_BACKEND_FAULT_BACKEND_H_
#define DBDESIGN_BACKEND_FAULT_BACKEND_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace dbdesign {

/// Deterministic fault schedule. Rates are probabilities in [0, 1]
/// applied per call key (not per call): a key selected as faulty is
/// faulty on every run with this plan, and recovers after
/// `transient_burst` attempts. All sampling goes through util/rng
/// seeded from `seed` + the call-content hash.
struct FaultPlan {
  uint64_t seed = 0x0f417u;

  /// Fraction of call keys that fail transiently (Unavailable).
  double transient_rate = 0.0;
  /// Consecutive failures per faulty key before it succeeds. A
  /// retrier with max_attempts > transient_burst always recovers.
  int transient_burst = 1;

  /// Fraction of cost answers poisoned (NaN or negative) on attempts
  /// below `transient_burst`.
  double poison_rate = 0.0;

  /// Fraction of CostBatch calls that die mid-flight, returning a
  /// prefix of costs plus Unavailable, on attempts below
  /// `transient_burst`.
  double batch_crash_rate = 0.0;

  /// Virtual latency added to every call (0 = none). Requires a Clock.
  uint64_t latency_micros = 0;
  /// Fraction of call keys that additionally sleep `overrun_micros`
  /// on attempts below `transient_burst` (deadline-overrun sim).
  double overrun_rate = 0.0;
  uint64_t overrun_micros = 0;

  /// Hard outage: every fallible call fails, forever.
  bool outage = false;

  static FaultPlan None() { return FaultPlan{}; }
  static FaultPlan Transient(uint64_t seed, double rate, int burst = 1) {
    FaultPlan p;
    p.seed = seed;
    p.transient_rate = rate;
    p.transient_burst = burst;
    return p;
  }
  static FaultPlan Poisoned(uint64_t seed, double rate, int burst = 1) {
    FaultPlan p;
    p.seed = seed;
    p.poison_rate = rate;
    p.transient_burst = burst;
    return p;
  }
  static FaultPlan BatchCrash(uint64_t seed, double rate, int burst = 1) {
    FaultPlan p;
    p.seed = seed;
    p.batch_crash_rate = rate;
    p.transient_burst = burst;
    return p;
  }
  static FaultPlan Latency(uint64_t seed, uint64_t latency_micros,
                           double overrun_rate, uint64_t overrun_micros,
                           int burst = 1) {
    FaultPlan p;
    p.seed = seed;
    p.latency_micros = latency_micros;
    p.overrun_rate = overrun_rate;
    p.overrun_micros = overrun_micros;
    p.transient_burst = burst;
    return p;
  }
  static FaultPlan Outage() {
    FaultPlan p;
    p.outage = true;
    return p;
  }
};

/// Observed injections, for tests/benches to assert the plan actually
/// fired.
struct FaultCounters {
  uint64_t calls = 0;            ///< fallible calls seen
  uint64_t transients = 0;       ///< Unavailable injected
  uint64_t poisons = 0;          ///< NaN/negative costs injected
  uint64_t batch_crashes = 0;    ///< batches truncated mid-flight
  uint64_t overruns = 0;         ///< deadline-overrun sleeps injected
  uint64_t latency_sleeps = 0;   ///< base-latency sleeps injected
};

class FaultInjectingBackend final : public DbmsBackend {
 public:
  /// Wraps `inner` (must outlive this). `clock` may be null when the
  /// plan injects no latency; when set it is typically the same
  /// VirtualClock the ResilientBackend above reads deadlines from.
  FaultInjectingBackend(DbmsBackend& inner, FaultPlan plan,
                        Clock* clock = nullptr);

  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;
  void ResetCounters();
  /// Forgets per-key attempt history, so burst faults fire again.
  void ResetAttempts();

  // --- DbmsBackend ---
  std::string name() const override {
    return "fault(" + inner_->name() + ")";
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
  /// Deterministic per-key decision: is `key` selected for the fault
  /// stream identified by `salt`, at probability `rate`?
  bool Selected(const std::string& key, uint64_t salt, double rate) const;
  /// Uniform value in [0, bound) derived from (key, salt) — used for
  /// batch crash points.
  uint64_t Derived(const std::string& key, uint64_t salt,
                   uint64_t bound) const;
  /// Bumps and returns the prior attempt count for (salt, key).
  int NextAttempt(const std::string& key, uint64_t salt);
  /// Applies latency simulation for `key`; returns true if an overrun
  /// was injected.
  bool InjectLatency(const std::string& key);
  /// Transient/outage gate shared by all fallible calls. Returns a
  /// non-OK status when the call must fail.
  Status TransientGate(const std::string& key);
  /// Poisons `cost` (NaN or negative, split by key bit) when the key
  /// is selected and inside its burst window.
  double MaybePoison(const std::string& key, double cost);

  DbmsBackend* inner_;
  const FaultPlan plan_;
  Clock* clock_;

  mutable Mutex mu_;
  /// Attempt counters keyed "salt|call-key" — per fault stream, so a
  /// key's transient burst and poison burst tick independently.
  std::map<std::string, int> attempts_ DBD_GUARDED_BY(mu_);
  FaultCounters counters_ DBD_GUARDED_BY(mu_);
};

}  // namespace dbdesign

#endif  // DBDESIGN_BACKEND_FAULT_BACKEND_H_
