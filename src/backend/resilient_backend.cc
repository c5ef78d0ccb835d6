#include "backend/resilient_backend.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "backend/trace_backend.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dbdesign {

ResilientBackend::ResilientBackend(DbmsBackend& inner, RetryPolicy policy,
                                   Clock* clock)
    : inner_(&inner),
      policy_(policy),
      clock_(clock != nullptr ? clock : &own_clock_) {}

ResilienceStats ResilientBackend::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ResilientBackend::ResetStats() {
  MutexLock lock(mu_);
  stats_ = ResilienceStats{};
}

ResilientBackend::BreakerState ResilientBackend::breaker_state() const {
  MutexLock lock(mu_);
  return breaker_;
}

uint64_t ResilientBackend::BackoffMicros(uint64_t key_hash,
                                         int attempt) const {
  double base = static_cast<double>(policy_.initial_backoff_micros) *
                std::pow(policy_.backoff_multiplier, attempt);
  double capped =
      std::min(base, static_cast<double>(policy_.max_backoff_micros));
  // Jitter is a pure function of (seed, call key, attempt): concurrent
  // callers draw from disjoint streams, so schedules are bit-identical
  // regardless of thread interleaving.
  Rng rng(policy_.jitter_seed ^ key_hash ^
          (static_cast<uint64_t>(attempt) + 1) * 0x9e3779b97f4a7c15ULL);
  double jitter = rng.UniformDouble() * policy_.jitter_fraction;
  return static_cast<uint64_t>(capped * (1.0 + jitter));
}

Status ResilientBackend::BreakerAdmit(bool* probe) {
  *probe = false;
  if (policy_.breaker_threshold <= 0) return Status::OK();
  MutexLock lock(mu_);
  switch (breaker_) {
    case BreakerState::kClosed:
      return Status::OK();
    case BreakerState::kOpen: {
      if (clock_->NowMicros() >= open_until_micros_) {
        breaker_ = BreakerState::kHalfOpen;
        probe_in_flight_ = true;
        *probe = true;
        ++stats_.breaker_probes;
        return Status::OK();
      }
      ++stats_.breaker_fast_fails;
      return Status::Unavailable("circuit breaker open: failing fast");
    }
    case BreakerState::kHalfOpen: {
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        *probe = true;
        ++stats_.breaker_probes;
        return Status::OK();
      }
      ++stats_.breaker_fast_fails;
      return Status::Unavailable("circuit breaker half-open: probe in flight");
    }
  }
  return Status::OK();
}

void ResilientBackend::RecordOutcome(bool success, bool probe, bool retried) {
  MutexLock lock(mu_);
  if (probe) probe_in_flight_ = false;
  if (success) {
    consecutive_giveups_ = 0;
    if (breaker_ == BreakerState::kHalfOpen) breaker_ = BreakerState::kClosed;
    if (retried) ++stats_.recoveries;
    return;
  }
  ++consecutive_giveups_;
  if (policy_.breaker_threshold > 0 &&
      (breaker_ == BreakerState::kHalfOpen ||
       consecutive_giveups_ >= policy_.breaker_threshold) &&
      breaker_ != BreakerState::kOpen) {
    breaker_ = BreakerState::kOpen;
    open_until_micros_ =
        clock_->NowMicros() + policy_.breaker_cooldown_micros;
    ++stats_.breaker_trips;
  }
}

Status ResilientBackend::ValidateCost(double cost) {
  if (std::isfinite(cost) && cost >= 0.0) return Status::OK();
  {
    MutexLock lock(mu_);
    ++stats_.poisoned_rejected;
  }
  // Garbage from a dying connection is treated as transient: the
  // answer is discarded and the call retried, so a poisoned cost can
  // never cross the seam into the cost model.
  return Status::Unavailable("rejected invalid backend cost " +
                             std::to_string(cost));
}

Status ResilientBackend::RunWithRetries(
    const std::string& op_key, uint64_t deadline_micros,
    const std::function<Status()>& attempt_fn) {
  {
    MutexLock lock(mu_);
    ++stats_.calls;
  }
  bool probe = false;
  Status admit = BreakerAdmit(&probe);
  if (!admit.ok()) return admit;

  const uint64_t key_hash = Fnv1a64(op_key);
  const uint64_t start = clock_->NowMicros();
  const int max_attempts = std::max(1, policy_.max_attempts);
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->SleepMicros(BackoffMicros(key_hash, attempt - 1));
      MutexLock lock(mu_);
      ++stats_.retries;
    }
    {
      MutexLock lock(mu_);
      ++stats_.attempts;
    }
    last = attempt_fn();
    if (deadline_micros > 0 &&
        clock_->NowMicros() - start > deadline_micros) {
      // The budget for this logical call is spent — even a late
      // success is useless to a caller that already timed out, and
      // there is no budget left to retry in.
      {
        MutexLock lock(mu_);
        ++stats_.deadline_exceeded;
      }
      last = Status::DeadlineExceeded(op_key + " exceeded " +
                                      std::to_string(deadline_micros) +
                                      "us deadline");
      break;
    }
    if (last.ok()) {
      RecordOutcome(/*success=*/true, probe, /*retried=*/attempt > 0);
      return Status::OK();
    }
    if (!last.IsRetryable()) {
      {
        MutexLock lock(mu_);
        ++stats_.permanent_failures;
      }
      // A permanent error means the backend answered: it is healthy,
      // the request was wrong. Does not feed the breaker.
      RecordOutcome(/*success=*/true, probe, /*retried=*/false);
      return last;
    }
  }
  {
    MutexLock lock(mu_);
    ++stats_.giveups;
  }
  RecordOutcome(/*success=*/false, probe, /*retried=*/true);
  return last;
}

Status ResilientBackend::RefreshStatistics(TableId table,
                                           const AnalyzeOptions& options) {
  return RunWithRetries(
      "refresh|" + std::to_string(table), policy_.call_deadline_micros,
      [&] { return inner_->RefreshStatistics(table, options); });
}

Result<PlanResult> ResilientBackend::OptimizeQuery(
    const BoundQuery& query, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  std::optional<PlanResult> out;
  Status s = RunWithRetries(
      "opt|" + TraceBackend::CallKey(query, design, knobs),
      policy_.call_deadline_micros, [&] {
        Result<PlanResult> r = inner_->OptimizeQuery(query, design, knobs);
        if (!r.ok()) return r.status();
        Status valid = ValidateCost(r.value().cost);
        if (!valid.ok()) return valid;
        out = std::move(r).value();
        return Status::OK();
      });
  if (!s.ok()) return s;
  return std::move(*out);
}

Result<double> ResilientBackend::CostQuery(const BoundQuery& query,
                                           const PhysicalDesign& design,
                                           const PlannerKnobs& knobs) {
  double out = 0.0;
  Status s = RunWithRetries(
      "cost|" + TraceBackend::CallKey(query, design, knobs),
      policy_.call_deadline_micros, [&] {
        Result<double> r = inner_->CostQuery(query, design, knobs);
        if (!r.ok()) return r.status();
        Status valid = ValidateCost(r.value());
        if (!valid.ok()) return valid;
        out = r.value();
        return Status::OK();
      });
  if (!s.ok()) return s;
  return out;
}

Result<std::vector<double>> ResilientBackend::CostBatch(
    std::span<const BoundQuery> queries, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  PartialCosts part = CostBatchPartial(queries, design, knobs);
  if (!part.status.ok()) return part.status;
  return std::move(part.costs);
}

DbmsBackend::PartialCosts ResilientBackend::CostBatchPartial(
    std::span<const BoundQuery> queries, const PhysicalDesign& design,
    const PlannerKnobs& knobs) {
  {
    MutexLock lock(mu_);
    ++stats_.calls;
  }
  bool probe = false;
  Status admit = BreakerAdmit(&probe);
  if (!admit.ok()) return PartialCosts{{}, admit};

  const size_t n = queries.size();
  std::vector<double> out;
  out.reserve(n);
  const std::string op_key = "batch|" + std::to_string(n);
  const uint64_t key_hash = Fnv1a64(op_key);
  const uint64_t start = clock_->NowMicros();
  const int max_attempts = std::max(1, policy_.max_attempts);
  bool salvaged_any = false;
  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->SleepMicros(BackoffMicros(key_hash, attempt - 1));
      MutexLock lock(mu_);
      ++stats_.retries;
    }
    {
      MutexLock lock(mu_);
      ++stats_.attempts;
    }
    // Retry only the un-answered tail: everything salvaged from prior
    // attempts stays in `out`.
    PartialCosts part =
        inner_->CostBatchPartial(queries.subspan(out.size()), design, knobs);
    size_t good = 0;
    Status poison = Status::OK();
    for (; good < part.costs.size(); ++good) {
      Status valid = ValidateCost(part.costs[good]);
      if (!valid.ok()) {
        poison = valid;
        break;
      }
    }
    out.insert(out.end(), part.costs.begin(),
               part.costs.begin() + static_cast<ptrdiff_t>(good));

    const bool complete = out.size() == n && part.status.ok() && poison.ok();
    const bool overdue =
        policy_.batch_deadline_micros > 0 &&
        clock_->NowMicros() - start > policy_.batch_deadline_micros;
    if (overdue) {
      {
        MutexLock lock(mu_);
        ++stats_.deadline_exceeded;
      }
      last = Status::DeadlineExceeded(
          op_key + " exceeded " +
          std::to_string(policy_.batch_deadline_micros) + "us deadline");
      break;
    }
    if (complete) {
      if (salvaged_any) {
        MutexLock lock(mu_);
        ++stats_.batches_salvaged;
      }
      RecordOutcome(/*success=*/true, probe, /*retried=*/attempt > 0);
      return PartialCosts{std::move(out), Status::OK()};
    }
    if (!poison.ok()) {
      last = poison;
    } else if (!part.status.ok()) {
      last = part.status;
    } else {
      last = Status::Internal(op_key + ": backend returned a short batch");
    }
    if (good > 0) {
      salvaged_any = true;
      MutexLock lock(mu_);
      stats_.results_salvaged += good;
    }
    if (!last.IsRetryable()) {
      {
        MutexLock lock(mu_);
        ++stats_.permanent_failures;
      }
      RecordOutcome(/*success=*/true, probe, /*retried=*/false);
      return PartialCosts{std::move(out), last};
    }
  }
  {
    MutexLock lock(mu_);
    ++stats_.giveups;
  }
  RecordOutcome(/*success=*/false, probe, /*retried=*/true);
  return PartialCosts{std::move(out), last};
}

}  // namespace dbdesign
