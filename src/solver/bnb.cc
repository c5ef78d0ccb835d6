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
  /// Creation order: among equal bounds the earlier node pops first.
  int seq = 0;
  /// The parent's final tableau, shared by both children and released
  /// once both have been popped (the root node holds its own). Only a
  /// node's own search writes it, before its children share it.
  std::shared_ptr<Tableau> tableau;

  bool operator<(const Node& other) const {
    // std::priority_queue pops its greatest: least bound, then least seq.
    if (bound != other.bound) return bound > other.bound;
    return seq > other.seq;
  }
};

double Now() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now()  // NOLINT(determinism): solve_time_sec telemetry only; no search decision reads the clock
                 .time_since_epoch())
      .count();
}

/// Reduced-cost fixing's safety margin (see bnb.h): a binary is fixed
/// only when its bound clears the incumbent by this much.
double FixingMargin(double incumbent, double z) {
  return 1e-9 * (1.0 + std::abs(incumbent) + std::abs(z));
}

/// A binary column's reduced-cost test at one LP: moving the column off
/// its current bound `value` costs at least `gain` over the LP's
/// objective.
struct FixCandidate {
  int col;
  double value;
  double gain;
};

/// The binaries of `t` (columns in `cols`, bounds still [0, 1]) that sit
/// nonbasic at a bound, each with the cost of leaving it.
std::vector<FixCandidate> FixCandidates(const Tableau& t,
                                        const std::vector<int>& cols) {
  std::vector<FixCandidate> out;
  for (int j : cols) {
    if (t.lower(j) != 0.0 || t.upper(j) != 1.0) continue;
    if (t.at_lower(j)) {
      out.push_back({j, 0.0, t.reduced_cost(j)});
    } else if (t.at_upper(j)) {
      out.push_back({j, 1.0, -t.reduced_cost(j)});
    }
  }
  return out;
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

  // Root reduced-cost fixing (see bnb.h). root_candidates are the root
  // LP's binaries at a bound, retested against every new incumbent;
  // rc_fix holds each reduced column's fixed value (-1 = free) and
  // rc_fixings the fixings in the order they were made.
  std::vector<int> binary_cols;
  for (int b : problem.binary_vars) {
    int col = red.old_to_new[static_cast<size_t>(b)];
    if (col >= 0) binary_cols.push_back(col);
  }
  double root_objective = 0.0;
  std::vector<FixCandidate> root_candidates;
  std::vector<signed char> rc_fix(static_cast<size_t>(num_red), -1);
  std::vector<std::pair<int, double>> rc_fixings;
  // Whether an LP with objective z rules out leaving a bound at `gain`.
  auto fixes = [&](double z, double gain) {
    return z + gain >= incumbent + FixingMargin(incumbent, z);
  };
  auto fix_at_root = [&] {
    for (const FixCandidate& c : root_candidates) {
      signed char& f = rc_fix[static_cast<size_t>(c.col)];
      if (f >= 0 || !fixes(root_objective, c.gain)) continue;
      f = static_cast<signed char>(c.value);
      rc_fixings.emplace_back(c.col, c.value);
      ++result.vars_fixed_by_reduced_cost;
    }
  };
  auto improve = [&](double obj, std::vector<double> values) {
    incumbent = obj;
    incumbent_values = std::move(values);
    fix_at_root();
  };

  auto try_heuristic = [&](const std::vector<double>& lp_values) {
    if (!heuristic) return;
    std::vector<double> values;
    double obj = 0.0;
    if (heuristic(lp_values, &values, &obj) && obj < incumbent - 1e-12) {
      improve(obj, std::move(values));
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
  auto root_tableau = std::make_shared<Tableau>(Tableau::Solve(
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
  root_objective = root.objective;
  root_candidates = FixCandidates(*root_tableau, binary_cols);
  fix_at_root();  // against the warm incumbent, if any
  try_heuristic(root.values);

  // Root fixings onto a child's tableau; false if one contradicts the
  // child's bounds, so that its subtree cannot beat the incumbent.
  auto apply_root_fixings = [&](Tableau& t) {
    for (auto [j, v] : rc_fixings) {
      if (t.lower(j) != t.upper(j)) {
        t.SetBounds(j, v, v);
      } else if (t.lower(j) != v) {
        return false;
      }
    }
    return true;
  };

  std::priority_queue<Node> open;
  int next_seq = 0;
  open.push(Node{root.objective, -1, 0.0, next_seq++, root_tableau});
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

    std::shared_ptr<Tableau> solved;
    NodeLp lp;
    if (node.var < 0) {
      ++result.nodes_explored;
      solved = std::move(node.tableau);
      lp = root;
    } else {
      signed char f = rc_fix[static_cast<size_t>(node.var)];
      if (f >= 0 && static_cast<double>(f) != node.value) {
        ++result.nodes_fixed_out;  // caught before copying the tableau
        continue;
      }
      // Copy the parent's tableau, fix the branching variable and the
      // root fixings, and reoptimize by dual simplex. The cutoff is the
      // prune test below moved into the reduced space: a node whose dual
      // bound reaches it would be pruned at its optimum, so its dual
      // simplex stops there.
      Tableau t = *node.tableau;
      node.tableau.reset();
      t.SetBounds(node.var, node.value, node.value);
      if (!apply_root_fixings(t)) {
        ++result.nodes_fixed_out;
        continue;
      }
      ++result.nodes_explored;
      int before = t.pivots();
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
      solved = std::make_shared<Tableau>(std::move(t));
    }
    if (lp.objective >= incumbent - 1e-12) continue;
    if (node.var >= 0) try_heuristic(lp.values);  // the root's ran above

    int branch = fractional_var(lp.values);
    if (branch < 0) {
      // Integral: candidate incumbent.
      if (lp.objective < incumbent - 1e-12) {
        improve(lp.objective, std::move(lp.values));
      }
      continue;
    }
    if (node.var >= 0) {
      // Node-local fixing, on the tableau both children will share. At
      // the root the test is the root fixing's.
      for (const FixCandidate& c : FixCandidates(*solved, binary_cols)) {
        if (rc_fix[static_cast<size_t>(c.col)] >= 0 ||
            !fixes(lp.objective, c.gain)) {
          continue;
        }
        solved->SetBounds(c.col, c.value, c.value);
        ++result.vars_fixed_by_reduced_cost;
      }
    }
    int col = red.old_to_new[static_cast<size_t>(branch)];
    for (double v : {1.0, 0.0}) {
      open.push(Node{lp.objective, col, v, next_seq++, solved});
    }
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
      "B&B: %d nodes (%d cut off, %d fixed out), %d vars fixed by reduced "
      "cost, %d pivots, %d cold nodes, %d root warm fallbacks, obj=%.3f "
      "bound=%.3f gap=%.4f",
      result.nodes_explored, result.nodes_cut_off, result.nodes_fixed_out,
      result.vars_fixed_by_reduced_cost, result.lp_pivots,
      result.node_cold_solves, result.root_warm_fallbacks,
      result.objective, result.lower_bound, result.gap()));
  return result;
}

}  // namespace dbdesign
