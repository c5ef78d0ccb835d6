#include "solver/bnb.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "util/logging.h"
#include "util/str.h"

namespace dbdesign {

namespace {

struct Node {
  double bound;  ///< parent LP bound
  /// Reduced column this child fixes, and its value; -1 for the root,
  /// whose LP is already solved.
  int var = -1;
  double value = 0.0;
  /// The parent's final tableau, shared by both children and released
  /// once both have been popped (the root node holds its own).
  std::shared_ptr<const Tableau> tableau;

  bool operator<(const Node& other) const {
    return bound > other.bound;  // min-heap by bound (best-first)
  }
};

double Now() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now()  // NOLINT(determinism): time-limit knob only; on timeout the solver reports the incumbent as non-optimal rather than changing it
                 .time_since_epoch())
      .count();
}

/// The root presolve: the problem with the root fixings substituted
/// out. Fixed columns are removed entirely; their objective contribution
/// moves to `offset` and their constraint contribution into each row's
/// rhs. Binaries keep the column bound [0, 1]. Rows that become empty
/// are KEPT (with no terms) so the row space, and therefore the
/// canonical basis encoding, is stable across different fixing sets;
/// their feasibility is checked directly here instead.
struct ReducedLp {
  LpProblem lp;
  std::vector<int> old_to_new;  ///< per original var; -1 = fixed
  std::vector<int> new_to_old;
  /// Input fixings plus forcing-row implications: expanding a solution
  /// back to the original space must use THIS, not the caller's vector.
  std::vector<signed char> fix;
  double offset = 0.0;
  bool infeasible = false;
};

ReducedLp Reduce(const MipProblem& problem,
                 const std::vector<signed char>& fix) {
  const LpProblem& base = problem.lp;
  ReducedLp red;
  red.fix = fix;
  // Forcing-row propagation to fixpoint: every variable is nonnegative,
  // so a <= or == row whose unfixed coefficients are all positive and
  // whose substituted rhs is zero pins those variables to zero — and a
  // strictly negative rhs is infeasible outright. A vetoed index's
  // aggregated link row (sum_a x_a - y_i <= 0 with y_i = 0) erases every
  // atom column that uses it this way, before any simplex runs.
  bool forced = true;
  while (forced) {
    forced = false;
    for (const LpConstraint& c : base.constraints) {
      if (c.rel == LpRelation::kGe) continue;
      double rhs = c.rhs;
      bool all_pos = true;
      bool any_free = false;
      for (const auto& [var, coef] : c.terms) {
        signed char f = red.fix[static_cast<size_t>(var)];
        if (f < 0) {
          any_free = true;
          if (coef <= 0.0) {
            all_pos = false;
            break;
          }
        } else {
          rhs -= coef * static_cast<double>(f);
        }
      }
      if (!all_pos || !any_free || rhs > 1e-9) continue;
      if (rhs < -1e-9) {
        red.infeasible = true;
        return red;
      }
      for (const auto& [var, coef] : c.terms) {
        signed char& f = red.fix[static_cast<size_t>(var)];
        if (f < 0) {
          f = 0;
          forced = true;
        }
      }
    }
  }
  int num_orig = base.num_vars;
  std::vector<double> upper = base.upper;
  for (int b : problem.binary_vars) {
    double& up = upper[static_cast<size_t>(b)];
    up = std::min(up, 1.0);
  }
  red.old_to_new.assign(static_cast<size_t>(num_orig), -1);
  for (int v = 0; v < num_orig; ++v) {
    if (red.fix[static_cast<size_t>(v)] < 0) {
      red.old_to_new[static_cast<size_t>(v)] = red.lp.AddVariable(
          base.objective[static_cast<size_t>(v)], 0.0,
          upper[static_cast<size_t>(v)]);
      red.new_to_old.push_back(v);
    } else if (red.fix[static_cast<size_t>(v)] == 1) {
      red.offset += base.objective[static_cast<size_t>(v)];
    }
  }
  for (const LpConstraint& c : base.constraints) {
    LpConstraint rc;
    rc.rel = c.rel;
    double rhs = c.rhs;
    for (const auto& [var, coef] : c.terms) {
      signed char f = red.fix[static_cast<size_t>(var)];
      if (f < 0) {
        rc.terms.emplace_back(red.old_to_new[static_cast<size_t>(var)], coef);
      } else {
        rhs -= coef * static_cast<double>(f);
      }
    }
    rc.rhs = std::abs(rhs) < 1e-9 ? 0.0 : rhs;
    if (rc.terms.empty()) {
      bool ok = rc.rel == LpRelation::kLe   ? rc.rhs >= 0.0
                : rc.rel == LpRelation::kGe ? rc.rhs <= 0.0
                                            : rc.rhs == 0.0;
      if (!ok) {
        red.infeasible = true;
        return red;
      }
    }
    red.lp.AddConstraint(std::move(rc));
  }
  return red;
}

}  // namespace

BnbResult SolveBinaryMip(const MipProblem& problem, const BnbOptions& options,
                         const PrimalHeuristic& heuristic,
                         const BnbWarmStart* warm) {
  double t0 = Now();
  BnbResult result;
  const int num_vars = problem.lp.num_vars;
  const int num_rows = static_cast<int>(problem.lp.constraints.size());
  for (double lo : problem.lp.lower) DBD_CHECK_EQ(lo, 0.0);

  // Root fixings as a dense assignment (-1 = free).
  std::vector<signed char> root_fix(static_cast<size_t>(num_vars), -1);
  for (auto [var, val] : problem.fixed_vars) {
    signed char v = val != 0 ? 1 : 0;
    signed char& slot = root_fix[static_cast<size_t>(var)];
    if (slot >= 0 && slot != v) {
      // Contradictory fixings (pin + veto of the same index): infeasible.
      result.lower_bound = std::numeric_limits<double>::infinity();
      result.solve_time_sec = Now() - t0;
      return result;
    }
    slot = v;
  }

  ReducedLp red = Reduce(problem, root_fix);
  if (red.infeasible) {
    result.lower_bound = std::numeric_limits<double>::infinity();
    result.solve_time_sec = Now() - t0;
    return result;
  }
  const int num_red = red.lp.num_vars;

  // Canonical ids in the reduced space: structurals renumber through the
  // presolve maps, row slacks shift with the structural count, and
  // columns the presolve fixed drop out.
  auto to_reduced = [&](const LpBasis& b) {
    LpBasis out;
    for (int id : b.basic) {
      if (id >= 0 && id < num_vars) {
        int v = red.old_to_new[static_cast<size_t>(id)];
        if (v >= 0) out.basic.push_back(v);
      } else if (id >= num_vars && id - num_vars < num_rows) {
        out.basic.push_back(num_red + (id - num_vars));
      }
    }
    for (int id : b.at_upper) {
      if (id < 0 || id >= num_vars) continue;
      int v = red.old_to_new[static_cast<size_t>(id)];
      if (v >= 0) out.at_upper.push_back(v);
    }
    return out;
  };
  auto to_original = [&](const LpBasis& b) {
    LpBasis out;
    for (int id : b.basic) {
      out.basic.push_back(id < num_red ? red.new_to_old[static_cast<size_t>(id)]
                                       : num_vars + (id - num_red));
    }
    for (int id : b.at_upper) {
      out.at_upper.push_back(red.new_to_old[static_cast<size_t>(id)]);
    }
    return out;
  };

  // A solved node LP, expanded back to the original variable space.
  struct NodeLp {
    double objective = 0.0;
    std::vector<double> values;
  };
  auto expand = [&](const Tableau& t) {
    NodeLp lp;
    lp.objective = t.Objective() + red.offset;
    std::vector<double> reduced = t.Values();
    lp.values.assign(static_cast<size_t>(num_vars), 0.0);
    for (int v = 0; v < num_vars; ++v) {
      signed char f = red.fix[static_cast<size_t>(v)];
      lp.values[static_cast<size_t>(v)] =
          f >= 0 ? static_cast<double>(f)
                 : reduced[static_cast<size_t>(
                       red.old_to_new[static_cast<size_t>(v)])];
    }
    return lp;
  };

  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_values;

  auto try_heuristic = [&](const std::vector<double>& lp_values) {
    if (!heuristic) return;
    std::vector<double> values;
    double obj = 0.0;
    if (heuristic(lp_values, &values, &obj) && obj < incumbent - 1e-12) {
      incumbent = obj;
      incumbent_values = std::move(values);
    }
  };

  // Seed the incumbent from the warm start (trusted like a heuristic
  // result), unless it contradicts the current fixings.
  if (warm != nullptr &&
      warm->values.size() == static_cast<size_t>(num_vars)) {
    bool consistent = true;
    for (int v = 0; v < num_vars; ++v) {
      signed char f = root_fix[static_cast<size_t>(v)];
      if (f >= 0 && std::abs(warm->values[static_cast<size_t>(v)] -
                             static_cast<double>(f)) > 1e-6) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      incumbent = warm->objective;
      incumbent_values = warm->values;
    }
  }

  LpBasis warm_basis;
  if (warm != nullptr) warm_basis = to_reduced(warm->basis);
  LpStatus root_status;
  auto root_tableau = std::make_shared<const Tableau>(Tableau::Solve(
      red.lp, options.simplex, warm_basis.empty() ? nullptr : &warm_basis,
      &root_status));
  result.lp_pivots += root_tableau->pivots();
  result.root_warm_fallbacks = root_tableau->warm_fell_back() ? 1 : 0;
  if (root_status == LpStatus::kInfeasible) {
    result.lower_bound = std::numeric_limits<double>::infinity();
    result.solve_time_sec = Now() - t0;
    return result;
  }
  if (root_status != LpStatus::kOptimal) {
    // Unbounded or iteration limit at the root: give up gracefully.
    result.solve_time_sec = Now() - t0;
    return result;
  }
  NodeLp root = expand(*root_tableau);
  result.lower_bound = root.objective;
  result.root_basis = to_original(root_tableau->Basis());
  try_heuristic(root.values);

  std::priority_queue<Node> open;
  open.push(Node{root.objective, -1, 0.0, root_tableau});
  root_tableau.reset();

  // Most-fractional branching: pick the binary farthest from an integer.
  // Fixed binaries are exactly integral in the expanded values, so they
  // are never selected.
  auto fractional_var = [&](const std::vector<double>& values) {
    int best = -1;
    double best_dist = 1e-6;
    for (int b : problem.binary_vars) {
      double v = values[static_cast<size_t>(b)];
      double dist = std::abs(v - std::round(v));
      if (dist > best_dist) {
        best_dist = dist;
        best = b;
      }
    }
    return best;
  };

  // Best-first search: nodes pop in non-decreasing parent-bound order, so
  // the popped node's bound is the global lower bound at that moment.
  double global_lb = root.objective;
  bool exhausted = false;
  while (true) {
    if (open.empty()) {
      exhausted = true;
      break;
    }
    if (result.nodes_explored >= options.max_nodes) break;
    if (Now() - t0 > options.time_limit_sec) break;

    Node node = open.top();
    open.pop();
    global_lb = std::max(global_lb, node.bound);
    if (node.bound >= incumbent - 1e-12) {
      // Every remaining node is at least this bad: incumbent is optimal.
      global_lb = incumbent;
      exhausted = true;
      break;
    }
    if (global_lb >= options.stop_at_bound) {
      break;  // bound certificate reached: caller doesn't need the proof
    }
    if (std::isfinite(incumbent) &&
        (incumbent - global_lb) / std::max(1e-12, std::abs(incumbent)) <=
            options.gap_tolerance &&
        options.gap_tolerance > 0.0) {
      break;  // good enough per the caller's time/quality knob
    }

    ++result.nodes_explored;
    std::shared_ptr<const Tableau> solved;
    NodeLp lp;
    if (node.var < 0) {
      solved = std::move(node.tableau);
      lp = root;
    } else {
      // Copy the parent's tableau, fix the branching variable and
      // reoptimize by dual simplex. The cutoff is the prune test below
      // moved into the reduced space: a node whose dual bound reaches it
      // would be pruned at its optimum, so its dual simplex stops there.
      Tableau t = *node.tableau;
      node.tableau.reset();
      int before = t.pivots();
      t.SetBounds(node.var, node.value, node.value);
      LpStatus s = t.Reoptimize(incumbent - 1e-12 - red.offset);
      result.lp_pivots += t.pivots() - before;
      if (s == LpStatus::kCutoff) {
        ++result.nodes_cut_off;
        continue;
      }
      if (s == LpStatus::kIterLimit) {
        // Numerical give-up: solve this node from scratch under the same
        // bounds.
        LpProblem bounded = red.lp;
        for (int j = 0; j < num_red; ++j) {
          bounded.lower[static_cast<size_t>(j)] = t.lower(j);
          bounded.upper[static_cast<size_t>(j)] = t.upper(j);
        }
        t = Tableau::Solve(bounded, options.simplex, nullptr, &s);
        result.lp_pivots += t.pivots();
        ++result.node_cold_solves;
      }
      if (s != LpStatus::kOptimal) continue;  // infeasible subtree
      lp = expand(t);
      solved = std::make_shared<const Tableau>(std::move(t));
    }
    if (lp.objective >= incumbent - 1e-12) continue;
    if (node.var >= 0) try_heuristic(lp.values);  // the root's ran above

    int branch = fractional_var(lp.values);
    if (branch < 0) {
      // Integral: candidate incumbent.
      if (lp.objective < incumbent - 1e-12) {
        incumbent = lp.objective;
        incumbent_values = std::move(lp.values);
      }
      continue;
    }
    int col = red.old_to_new[static_cast<size_t>(branch)];
    for (double v : {1.0, 0.0}) open.push(Node{lp.objective, col, v, solved});
  }

  if (exhausted && std::isfinite(incumbent)) {
    result.proven_optimal = true;
    global_lb = incumbent;
  }
  result.lower_bound = std::min(global_lb, incumbent);

  result.feasible = std::isfinite(incumbent);
  if (result.feasible) {
    result.objective = incumbent;
    result.values = std::move(incumbent_values);
  }
  result.solve_time_sec = Now() - t0;
  DBD_LOG_DEBUG(StrFormat(
      "B&B: %d nodes (%d cut off), %d pivots, %d cold nodes, "
      "%d root warm fallbacks, obj=%.3f bound=%.3f gap=%.4f",
      result.nodes_explored, result.nodes_cut_off, result.lp_pivots,
      result.node_cold_solves, result.root_warm_fallbacks,
      result.objective, result.lower_bound, result.gap()));
  return result;
}

}  // namespace dbdesign
