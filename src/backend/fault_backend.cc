#include "backend/fault_backend.h"

#include <cmath>
#include <limits>

#include "backend/trace_backend.h"
#include "util/hash.h"
#include "util/rng.h"

namespace dbdesign {

namespace {

// Distinct fault streams per call key: each stream hashes the key with
// its own salt, so "is this key transiently faulty" and "is this key
// poisoned" are independent deterministic draws.
constexpr uint64_t kTransientSalt = 1;
constexpr uint64_t kPoisonSalt = 2;
constexpr uint64_t kBatchCrashSalt = 3;
constexpr uint64_t kOverrunSalt = 4;
constexpr uint64_t kCrashPointSalt = 5;

std::string StreamKey(uint64_t salt, const std::string& key) {
  return std::to_string(salt) + "|" + key;
}

}  // namespace

FaultInjectingBackend::FaultInjectingBackend(DbmsBackend& inner,
                                             FaultPlan plan, Clock* clock)
    : inner_(&inner), plan_(plan), clock_(clock) {}

FaultCounters FaultInjectingBackend::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void FaultInjectingBackend::ResetCounters() {
  MutexLock lock(mu_);
  counters_ = FaultCounters{};
}

void FaultInjectingBackend::ResetAttempts() {
  MutexLock lock(mu_);
  attempts_.clear();
}

bool FaultInjectingBackend::Selected(const std::string& key, uint64_t salt,
                                     double rate) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // The decision is a pure function of (plan seed, stream salt, call
  // content): no global call order, no shared RNG state — concurrent
  // callers cannot perturb each other's draws.
  Rng rng(plan_.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ Fnv1a64(key));
  return rng.Bernoulli(rate);
}

uint64_t FaultInjectingBackend::Derived(const std::string& key, uint64_t salt,
                                        uint64_t bound) const {
  if (bound == 0) return 0;
  Rng rng(plan_.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ Fnv1a64(key));
  return rng.Next() % bound;
}

int FaultInjectingBackend::NextAttempt(const std::string& key, uint64_t salt) {
  MutexLock lock(mu_);
  return attempts_[StreamKey(salt, key)]++;
}

bool FaultInjectingBackend::InjectLatency(const std::string& key) {
  if (clock_ == nullptr) return false;
  if (plan_.latency_micros > 0) {
    clock_->SleepMicros(plan_.latency_micros);
    MutexLock lock(mu_);
    ++counters_.latency_sleeps;
  }
  if (Selected(key, kOverrunSalt, plan_.overrun_rate) &&
      NextAttempt(key, kOverrunSalt) < plan_.transient_burst) {
    clock_->SleepMicros(plan_.overrun_micros);
    MutexLock lock(mu_);
    ++counters_.overruns;
    return true;
  }
  return false;
}

Status FaultInjectingBackend::TransientGate(const std::string& key) {
  {
    MutexLock lock(mu_);
    ++counters_.calls;
  }
  if (plan_.outage) {
    MutexLock lock(mu_);
    ++counters_.transients;
    return Status::Unavailable("injected outage: backend is down");
  }
  if (Selected(key, kTransientSalt, plan_.transient_rate) &&
      NextAttempt(key, kTransientSalt) < plan_.transient_burst) {
    MutexLock lock(mu_);
    ++counters_.transients;
    return Status::Unavailable("injected transient fault");
  }
  return Status::OK();
}

double FaultInjectingBackend::MaybePoison(const std::string& key,
                                          double cost) {
  if (!Selected(key, kPoisonSalt, plan_.poison_rate)) return cost;
  if (NextAttempt(key, kPoisonSalt) >= plan_.transient_burst) return cost;
  {
    MutexLock lock(mu_);
    ++counters_.poisons;
  }
  // Half the poisoned keys answer NaN, half a negative cost — both are
  // invalid answers the seam above must reject.
  return (Fnv1a64(key) & 1) ? std::numeric_limits<double>::quiet_NaN()
                            : -1.0;
}

Status FaultInjectingBackend::RefreshStatistics(TableId table,
                                                const AnalyzeOptions& options) {
  std::string key = "refresh|" + std::to_string(table);
  InjectLatency(key);
  Status gate = TransientGate(key);
  if (!gate.ok()) return gate;
  return inner_->RefreshStatistics(table, options);
}

Result<PlanResult> FaultInjectingBackend::OptimizeQuery(
    const BoundQuery& query, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  std::string key = TraceBackend::CallKey(query, design, knobs);
  InjectLatency(key);
  Status gate = TransientGate(key);
  if (!gate.ok()) return gate;
  Result<PlanResult> plan = inner_->OptimizeQuery(query, design, knobs);
  if (!plan.ok()) return plan;
  PlanResult out = std::move(plan).value();
  out.cost = MaybePoison(key, out.cost);
  return out;
}

Result<double> FaultInjectingBackend::CostQuery(const BoundQuery& query,
                                                const PhysicalDesign& design,
                                                const PlannerKnobs& knobs) {
  std::string key = TraceBackend::CallKey(query, design, knobs);
  InjectLatency(key);
  Status gate = TransientGate(key);
  if (!gate.ok()) return gate;
  Result<double> cost = inner_->CostQuery(query, design, knobs);
  if (!cost.ok()) return cost;
  return MaybePoison(key, cost.value());
}

Result<std::vector<double>> FaultInjectingBackend::CostBatch(
    std::span<const BoundQuery> queries, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  PartialCosts part = CostBatchPartial(queries, design, knobs);
  if (!part.status.ok()) return part.status;
  return std::move(part.costs);
}

DbmsBackend::PartialCosts FaultInjectingBackend::CostBatchPartial(
    std::span<const BoundQuery> queries, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  // The batch key covers every query in the span, so retrying a tail
  // is a fresh draw (as a real reconnect would be) while re-running
  // the identical batch replays the identical fault.
  std::string batch_key = "batch|" + std::to_string(queries.size());
  for (const BoundQuery& q : queries) {
    batch_key += "|";
    batch_key += std::to_string(Fnv1a64(TraceBackend::CallKey(q, design, knobs)));
  }
  InjectLatency(batch_key);
  Status gate = TransientGate(batch_key);
  if (!gate.ok()) return PartialCosts{{}, gate};

  PartialCosts part = inner_->CostBatchPartial(queries, design, knobs);
  if (!part.status.ok()) return part;

  // Per-query poison inside the batch (each query key draws its own
  // poison stream, ticking once per batch attempt).
  for (size_t i = 0; i < part.costs.size(); ++i) {
    part.costs[i] = MaybePoison(TraceBackend::CallKey(queries[i], design, knobs),
                                part.costs[i]);
  }

  if (Selected(batch_key, kBatchCrashSalt, plan_.batch_crash_rate) &&
      NextAttempt(batch_key, kBatchCrashSalt) < plan_.transient_burst) {
    // Crash mid-batch: the connection died after k answers arrived.
    size_t k = static_cast<size_t>(
        Derived(batch_key, kCrashPointSalt, queries.size()));
    part.costs.resize(k);
    part.status =
        Status::Unavailable("injected batch crash after " +
                            std::to_string(k) + "/" +
                            std::to_string(queries.size()) + " results");
    MutexLock lock(mu_);
    ++counters_.batch_crashes;
  }
  return part;
}

}  // namespace dbdesign
