// Branch & bound for binary integer programs over the simplex LP
// relaxation. Gives CoPhy its quality guarantee: the returned gap is
// (incumbent - global LP bound) / incumbent, and the node budget is the
// paper's "trade off execution time against quality" knob. The budget
// counts nodes, not seconds, so a result never depends on the machine's
// speed.
//
// Root-level fixings (MipProblem::fixed_vars) are eliminated by
// substitution before any simplex runs: fixed columns never enter the
// tableau, their objective contribution becomes a constant offset, and
// forcing rows propagate further zeros (a vetoed index erases every atom
// column that needs it). A fully-fixed problem solves without a single
// pivot. Binaries carry the bound [0, 1] on their column, not as rows.
//
// The root LP solves warm when the caller passes a previous root basis:
// the crash toward it finishes by primal phase 2 or by a cost-shifted
// dual simplex (see simplex.h), so only the iteration limit sends it to
// a cold solve (BnbResult::root_warm_fallbacks). Below the root, no LP
// is built from scratch: each child copies its parent's final tableau,
// fixes the branching variable (lower = upper = 0 or 1) and reoptimizes
// by dual simplex, typically in a few pivots. A dual ray proves the
// child infeasible, and a child whose dual bound reaches the incumbent
// stops reoptimizing there: it would be pruned at its optimum anyway.
// Open nodes pop best bound first, ties first in, first out, so the
// search order is the program's and not the standard library's heap.
//
// Reduced-cost fixing. At an optimal node LP with objective z, a binary
// column nonbasic at 0 with reduced cost d >= 0 bounds every solution of
// the node's region with that binary at 1 by z + d; one nonbasic at 1
// (d <= 0) bounds every solution with it at 0 by z - d. When that bound
// reaches the incumbent z* plus the margin 1e-9 * (1 + |z*| + |z|), the
// binary is fixed at its current bound: nothing on the other side beats
// the incumbent. The margin makes round-off fix less, never more.
//  - Root fixing: the root's objective and reduced costs are kept, and
//    the test reruns each time the incumbent improves (the warm start,
//    the heuristic, an integral node). Every child gets those fixings on
//    its tableau before it reoptimizes; a child whose bounds contradict
//    one is dropped without an LP (BnbResult::nodes_fixed_out).
//  - Node-local fixing: a node below the root about to branch applies
//    the test with its own objective and reduced costs, on its tableau
//    before both children share it, so the fixings hold for its whole
//    subtree. (At the root the two tests coincide.)
// BnbResult::vars_fixed_by_reduced_cost counts both. The root basis
// handed back for warm starts is read before any fixing.
//
// Why the bounds stay valid. A fixing removes only solutions that cost
// at least the incumbent of its time, and the incumbent only falls. So
// a node's LP bound after fixing covers the solutions of its subtree
// that beat the incumbent, and the subtree's true bound is min(node
// bound, incumbent). Hence lower_bound = min(global bound, incumbent)
// stays valid. The stop_at_bound certificate (BnbOptions) stays valid
// too: a popped node whose bound is at or above the incumbent ends the
// search as a proof before the certificate test runs, so a certificate
// is only ever issued on a bound below the incumbent, which bounds
// every solution.

#ifndef DBDESIGN_SOLVER_BNB_H_
#define DBDESIGN_SOLVER_BNB_H_

#include <functional>
#include <limits>
#include <vector>

#include "solver/simplex.h"

namespace dbdesign {

/// A minimization LP plus a set of variables restricted to {0, 1}. Every
/// variable's lower bound must be 0; binaries get upper bound 1 (an
/// upper bound in `lp` is kept if tighter).
struct MipProblem {
  LpProblem lp;
  std::vector<int> binary_vars;
  /// Root-level variable fixings applied before search: (var, 0 or 1),
  /// eliminated by the root presolve's substitution. CoPhy encodes
  /// DBA pins (y_i = 1) and vetoes (y_i = 0) here, so constraint edits
  /// change only these fixings — the rest of the problem (and any cached
  /// atom matrix behind it) is reused verbatim.
  std::vector<std::pair<int, int>> fixed_vars;
};

struct BnbOptions {
  int max_nodes = 2000;
  /// Stop early when the relative gap falls below this (0 = solve to
  /// proven optimality within the node budget).
  double gap_tolerance = 0.0;
  /// Stop as soon as the global lower bound reaches this value (default
  /// +inf: never). The caller gets `lower_bound >= stop_at_bound` with
  /// `proven_optimal == false` — a bound CERTIFICATE at a fraction of a
  /// full proof's cost. CoPhy's allocation DP uses this to certify that
  /// a cluster's unexplored budget tail cannot beat the incumbent split
  /// without paying for the tail's exact optimum.
  double stop_at_bound = std::numeric_limits<double>::infinity();
  SimplexOptions simplex;
};

/// Carry-over state from a previous solve of a near-identical problem.
/// Both members are optional (leave empty to skip):
///  - `basis` warm-starts the ROOT relaxation (nodes below it reoptimize
///    from their parent). It is a canonical basis (see LpBasis) over the
///    problem's own variables and rows, i.e. a previous
///    BnbResult::root_basis for a problem with the same rows; the
///    fixings may differ; columns they eliminate are dropped from it. A
///    stale basis costs extra pivots, never a wrong answer.
///  - `values`/`objective` seed the initial incumbent and are trusted
///    verbatim, exactly like a PrimalHeuristic result: the caller must
///    guarantee feasibility. Entries for fixed_vars are cross-checked
///    against the fixings and the incumbent is dropped on mismatch.
struct BnbWarmStart {
  LpBasis basis;
  std::vector<double> values;
  double objective = 0.0;
};

struct BnbResult {
  bool feasible = false;
  bool proven_optimal = false;
  double objective = 0.0;          ///< incumbent value
  std::vector<double> values;      ///< incumbent assignment
  double lower_bound = 0.0;        ///< global LP bound
  int nodes_explored = 0;
  double solve_time_sec = 0.0;
  int lp_pivots = 0;               ///< simplex pivots across all nodes
  /// Nodes whose dual simplex stopped once their bound reached the
  /// incumbent (LpStatus::kCutoff); each is pruned as if solved.
  int nodes_cut_off = 0;
  /// Node LPs that could not reoptimize from the parent's tableau (the
  /// dual simplex gave up, a numerical failure) and were solved from
  /// scratch instead.
  int node_cold_solves = 0;
  /// Root LPs whose warm basis gave no verdict (the iteration limit) and
  /// were then solved cold; 0 or 1 per solve.
  int root_warm_fallbacks = 0;
  /// Binaries fixed by reduced cost (see the file comment): root
  /// fixings plus every node-local fixing, each counted once where it
  /// was made.
  int vars_fixed_by_reduced_cost = 0;
  /// Open nodes dropped because their bounds contradict a root
  /// reduced-cost fixing: their subtree holds nothing better than the
  /// incumbent. They run no LP and do not count in nodes_explored.
  int nodes_fixed_out = 0;

  /// Canonical basis of the root relaxation (see BnbWarmStart::basis);
  /// feed back as a warm start for the next solve of a near-identical
  /// problem. Empty if the root LP did not solve.
  LpBasis root_basis;

  /// Relative optimality gap; 0 when proven optimal.
  double gap() const {
    if (!feasible) return 1.0;
    double denom = std::max(1e-12, std::abs(objective));
    return std::max(0.0, (objective - lower_bound) / denom);
  }
};

/// Optional primal heuristic: maps a (fractional) LP solution to a
/// feasible binary solution. Returns false if it cannot.
using PrimalHeuristic =
    std::function<bool(const std::vector<double>& lp_values,
                       std::vector<double>* out_values, double* out_obj)>;

/// Solves min c^T x, constraints, x >= 0, x_b in {0,1} for b in
/// binary_vars.
BnbResult SolveBinaryMip(const MipProblem& problem,
                         const BnbOptions& options = {},
                         const PrimalHeuristic& heuristic = nullptr,
                         const BnbWarmStart* warm = nullptr);

}  // namespace dbdesign

#endif  // DBDESIGN_SOLVER_BNB_H_
