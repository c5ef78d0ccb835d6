// Sparse bounded-variable simplex (primal and dual) for linear programs.
//
// CoPhy formulates index selection as a binary integer program and the
// paper relies on "sophisticated and mature solvers". No external solver
// is available in this environment, so the repo ships a self-contained
// LP solver. Constraint rows of the tableau are stored sparsely (sorted
// column/value pairs), which is what makes thousand-candidate CoPhy
// instances tractable: atom rows touch a handful of variables each, so
// pivots cost O(nnz) instead of O(rows x columns).
//
// Alongside the rows the tableau keeps its column pattern: one bit per
// (row, column) entry, ceil(rows / 64) words per column in one flat
// array, set on fill-in and cleared when an entry drops out. Gathering
// the pivot column scans that column's words and does one row search
// per set bit, in row order, rather than a search in every row. The
// pattern is built only when it takes no more memory than the rows
// themselves, so a tableau stays O(nnz); a tableau without it gathers
// by searching every row. CoPhy's per-cluster BIPs (about a hundred
// rows or fewer) keep it; its monolithic BIPs of several hundred rows
// and more do not.
//
// Every column carries bounds [lower, upper] (default [0, +inf)). A
// nonbasic column sits at one of its bounds, so a binary needs no
// "x <= 1" row and a branch-and-bound fixing is just lower = upper = v.
//
// Three ways to reach an optimum:
//  - Cold: two-phase primal simplex from the slack/artificial basis,
//    Dantzig pricing with a fall-back to Bland's rule against cycling.
//  - Warm (the `warm` argument of SolveLp / Tableau::Solve): crash
//    toward a previous optimal basis, given as a SET of basic columns
//    plus the set of structurals nonbasic at their upper bound
//    (LpBasis). Each wanted column pivots into any row whose basic
//    column is unwanted, at the largest |pivot|. If the crashed basis is
//    primal feasible, primal phase 2 finishes. Otherwise boxed columns
//    move to the bound their reduced cost prefers, and a column
//    unbounded above whose reduced cost is negative has that cost
//    shifted to zero; the basis is then dual feasible for the shifted
//    costs, and the dual simplex restores primal feasibility. If costs
//    were shifted, reduced costs are recomputed from the true costs and
//    primal phase 2 finishes. A dual ray proves the LP infeasible
//    whatever the costs. Only the iteration limit leaves a warm solve
//    without a verdict; Solve then solves cold. A stale basis costs
//    pivots, never correctness.
//  - Reoptimization (Tableau::SetBounds + Tableau::Reoptimize): an
//    optimal tableau stays dual feasible when a bound moves, so the dual
//    simplex restores primal feasibility in a few pivots. Branch and
//    bound copies the parent's final tableau, fixes one variable and
//    reoptimizes; a dual ray proves the child infeasible. Under a dual
//    feasible basis the objective of the current basic solution is a
//    lower bound on the optimum, and each dual pivot only raises it, so
//    Reoptimize takes an objective cutoff (the incumbent): once that
//    bound reaches it, the node will be pruned whatever its optimum,
//    and the dual simplex stops with kCutoff instead of pivoting on.
//
// Pricing and ratio-test ties break by lowest index, so every solve is
// deterministic.

#ifndef DBDESIGN_SOLVER_SIMPLEX_H_
#define DBDESIGN_SOLVER_SIMPLEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace dbdesign {

enum class LpRelation { kLe, kGe, kEq };

/// One linear constraint: sum(terms) rel rhs.
struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  ///< (var index, coefficient)
  LpRelation rel = LpRelation::kLe;
  double rhs = 0.0;
};

/// minimize c^T x  subject to constraints, lower <= x <= upper.
struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  ///< length num_vars
  std::vector<double> lower;      ///< length num_vars, finite
  std::vector<double> upper;      ///< length num_vars, may be +inf
  std::vector<LpConstraint> constraints;

  int AddVariable(double cost, double lo = 0.0,
                  double up = std::numeric_limits<double>::infinity()) {
    objective.push_back(cost);
    lower.push_back(lo);
    upper.push_back(up);
    return num_vars++;
  }
  void AddConstraint(LpConstraint c) { constraints.push_back(std::move(c)); }
};

/// kCutoff comes only from Tableau::Reoptimize given a cutoff: the LP's
/// optimum is at least that cutoff, or the LP is infeasible.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit, kCutoff };

/// A basis in problem-level terms, so it survives renumbering (the B&B
/// presolve drops fixed columns) and row reordering. Canonical column
/// ids: v in [0, num_vars) is structural variable v, num_vars + r is the
/// slack/surplus of constraint r. Artificials are never named: a row
/// whose artificial stayed basic (a redundant row) simply contributes no
/// entry.
struct LpBasis {
  std::vector<int> basic;     ///< canonical ids of basic columns, sorted
  std::vector<int> at_upper;  ///< structurals nonbasic at upper, sorted

  bool empty() const { return basic.empty() && at_upper.empty(); }
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  ///< length num_vars

  /// Number of simplex pivots performed (all phases, plus any pivots
  /// spent on a warm basis that was then abandoned). Bound flips of a
  /// boxed entering column are not pivots and are not counted.
  int pivots = 0;

  /// Optimal basis (filled only when status == kOptimal).
  LpBasis basis;

  bool optimal() const { return status == LpStatus::kOptimal; }
};

struct SimplexOptions {
  int max_iterations = 200000;
  double eps = 1e-9;
};

/// The simplex tableau: B^-1 A row-wise over [structural | slack |
/// artificial] columns, the values of the basic variables, the bound
/// state of every nonbasic column and the reduced costs. Copyable, so a
/// branch-and-bound child can start from its parent's final tableau.
class Tableau {
 public:
  /// Builds the slack/artificial starting basis with every structural
  /// nonbasic at its lower bound.
  Tableau(const LpProblem& problem, const SimplexOptions& options);

  /// Solves `problem`, from `warm` when that basis yields a verdict and
  /// cold otherwise; `*status` receives the outcome. Pivots spent on an
  /// abandoned warm basis are included in the result's pivots(), and
  /// warm_fell_back() reports the abandonment.
  static Tableau Solve(const LpProblem& problem, const SimplexOptions& options,
                       const LpBasis* warm, LpStatus* status);

  /// Moves structural `var`'s bounds to [lo, up], keeping the basis. A
  /// nonbasic `var` moves to the bound matching its state. Follow with
  /// Reoptimize().
  void SetBounds(int var, double lo, double up);

  /// Dual simplex from a dual feasible basis (an optimal tableau after
  /// SetBounds), then a primal pass that mops up any dual infeasibility
  /// left by round-off. kInfeasible means the dual is unbounded;
  /// kIterLimit means no verdict. kCutoff means the dual bound reached
  /// `cutoff` before primal feasibility: the optimum is at least
  /// `cutoff` (or the LP is infeasible), and the tableau is left
  /// mid-solve. A run that never stops at the cutoff is the run without
  /// one, pivot for pivot.
  LpStatus Reoptimize(
      double cutoff = std::numeric_limits<double>::infinity());

  /// Solution under `status`: values, objective, basis and pivots when
  /// optimal, just the status and pivots otherwise.
  LpSolution Solution(LpStatus status) const;

  /// Structural values of the current basic solution, clamped to bounds.
  std::vector<double> Values() const;
  /// c^T x over Values().
  double Objective() const;
  /// The current basis in canonical encoding.
  LpBasis Basis() const;

  double lower(int var) const { return lo_[static_cast<size_t>(var)]; }
  double upper(int var) const { return up_[static_cast<size_t>(var)]; }
  /// Reduced cost of structural `var` (0 while it is basic).
  double reduced_cost(int var) const { return z_[static_cast<size_t>(var)]; }
  /// Whether structural `var` is nonbasic at its lower (upper) bound.
  bool at_lower(int var) const {
    return state_[static_cast<size_t>(var)] == kAtLower;
  }
  bool at_upper(int var) const {
    return state_[static_cast<size_t>(var)] == kAtUpper;
  }
  int pivots() const { return pivots_; }
  /// True if Solve abandoned a warm basis (iteration limit) and solved
  /// cold instead.
  bool warm_fell_back() const { return warm_fell_back_; }

 private:
  enum State : signed char { kBasic, kAtLower, kAtUpper };
  using SparseRow = std::vector<std::pair<int, double>>;
  using Column = std::vector<std::pair<int, double>>;  ///< (row, value)

  /// Two-phase primal simplex from the starting basis.
  LpStatus SolveCold();

  /// Crash toward `basis`, then primal phase 2 (primal feasible) or the
  /// dual simplex under shifted costs followed by primal phase 2 (see
  /// the file comment). Returns kIterLimit only at the iteration limit:
  /// the tableau is then spent and the caller must solve cold.
  LpStatus SolveWarm(const LpBasis& basis);

  double Coef(int r, int c) const;
  /// Offset of column c's first word in col_bits_.
  size_t ColumnWordAt(int c) const {
    return static_cast<size_t>(c) * static_cast<size_t>(col_words_);
  }
  /// Calls f(row, value) for each nonzero of column c, in row order.
  template <typename F>
  void ForEachInColumn(int c, F&& f) const;
  void GatherColumn(int c, Column* col) const;
  bool ColumnMatchesRowScan(int c, const Column& col) const;
  double NonbasicValue(int j) const;
  void ShiftBasics(int j, double delta);
  void ComputeReducedCosts(const std::vector<double>& cost);
  void PivotTo(int leave, int enter, double leave_value, const Column& col);
  LpStatus Primal();
  /// Dual simplex; returns kCutoff once the dual bound reaches `cutoff`
  /// (see Reoptimize).
  LpStatus Dual(double cutoff);
  /// c^T x of the current basic solution with basic values unclamped,
  /// and in `*magnitude` the sum of |c_j x_j|, the scale of its
  /// round-off.
  double BasicObjective(double* magnitude) const;
  bool PrimalFeasible() const;
  bool MakeDualFeasible();
  void AddScaled(int r, const SparseRow& src, double f);

  SimplexOptions options_;
  int m_ = 0;
  int n_struct_ = 0;
  int n_total_ = 0;
  int first_art_ = 0;
  int pivots_ = 0;
  bool warm_fell_back_ = false;
  std::vector<SparseRow> rows_;
  int col_words_ = 0;                 ///< ceil(m_ / 64); 0 = no pattern
  /// Column pattern: bit r of column c's col_words_ words (at
  /// c * col_words_) is set iff rows_[r] stores an entry for c.
  std::vector<uint64_t> col_bits_;
  std::vector<double> beta_;          ///< per row: value of its basic column
  std::vector<int> basis_;            ///< per row: basic column
  std::vector<double> lo_, up_;       ///< per column bounds
  std::vector<signed char> state_;    ///< per column State
  std::vector<double> cost_;          ///< per column phase-2 cost
  std::vector<double> z_;             ///< per column reduced cost
  std::vector<int> slack_col_of_row_; ///< per row: its slack column or -1
  std::vector<int> slack_row_;        ///< per slack column: owning row
  SparseRow scratch_;                 ///< AddScaled merge buffer
};

/// Solves the LP. If `warm` is non-null it must use the canonical
/// encoding (see LpBasis) against this problem's variable/row space; ids
/// that name nothing in it are ignored, so a basis that does not fit
/// costs pivots, never a wrong answer.
LpSolution SolveLp(const LpProblem& problem, const SimplexOptions& options = {},
                   const LpBasis* warm = nullptr);

}  // namespace dbdesign

#endif  // DBDESIGN_SOLVER_SIMPLEX_H_
