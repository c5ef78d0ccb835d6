#include "solver/simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace dbdesign {

namespace {

/// Entries below this magnitude are dropped during sparse row merges:
/// they are numerical noise (three orders of magnitude below the solver
/// eps) and keeping them would re-densify the tableau over pivots.
constexpr double kDropTol = 1e-13;

/// A basic value this far outside its bounds is primal infeasible.
constexpr double kPrimalTol = 1e-7;

/// The smallest |entry| the crash will pivot on.
constexpr double kCrashPivotTol = 1e-7;

/// How far, relative to the objective's scale, the dual bound must pass
/// the cutoff before the dual simplex stops. The bound is exact only in
/// exact arithmetic: its sum carries round-off, the optimum a caller
/// sees is taken over values clamped to their bounds, and the primal
/// mop-up pass can lower it through reduced costs that round-off left
/// slightly dual infeasible. The margin keeps the stop on the safe side
/// of that drift. It can only make a node stop later than it might,
/// never stop one whose reported optimum falls below the cutoff, so a
/// caller that prunes on `optimum >= cutoff` prunes the same nodes with
/// or without a cutoff.
constexpr double kCutoffMargin = 1e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();

LpRelation Flipped(LpRelation rel) {
  return rel == LpRelation::kLe   ? LpRelation::kGe
         : rel == LpRelation::kGe ? LpRelation::kLe
                                  : LpRelation::kEq;
}

}  // namespace

Tableau::Tableau(const LpProblem& p, const SimplexOptions& options)
    : options_(options),
      m_(static_cast<int>(p.constraints.size())),
      n_struct_(p.num_vars) {
  DBD_CHECK_EQ(p.objective.size(), static_cast<size_t>(n_struct_));
  DBD_CHECK_EQ(p.lower.size(), static_cast<size_t>(n_struct_));
  DBD_CHECK_EQ(p.upper.size(), static_cast<size_t>(n_struct_));

  // Each row is signed so that its residual b - A x_N (every structural
  // at its lower bound) is nonnegative; a row then starts with its slack
  // basic when the signed relation is <=, else with an artificial.
  std::vector<double> resid(static_cast<size_t>(m_));
  std::vector<LpRelation> rel(static_cast<size_t>(m_));
  int n_slack = 0;
  int n_art = 0;
  for (int r = 0; r < m_; ++r) {
    const LpConstraint& c = p.constraints[static_cast<size_t>(r)];
    double res = c.rhs;
    for (const auto& [var, coef] : c.terms) {
      res -= coef * p.lower[static_cast<size_t>(var)];
    }
    resid[static_cast<size_t>(r)] = res;
    rel[static_cast<size_t>(r)] = res < 0.0 ? Flipped(c.rel) : c.rel;
    if (c.rel != LpRelation::kEq) ++n_slack;
    if (rel[static_cast<size_t>(r)] != LpRelation::kLe) ++n_art;
  }

  // Column layout: [structural | slack/surplus | artificial].
  n_total_ = n_struct_ + n_slack + n_art;
  first_art_ = n_struct_ + n_slack;
  rows_.assign(static_cast<size_t>(m_), {});
  beta_.assign(static_cast<size_t>(m_), 0.0);
  basis_.assign(static_cast<size_t>(m_), -1);
  lo_.assign(static_cast<size_t>(n_total_), 0.0);
  up_.assign(static_cast<size_t>(n_total_), kInf);
  state_.assign(static_cast<size_t>(n_total_), kAtLower);
  cost_.assign(static_cast<size_t>(n_total_), 0.0);
  z_.assign(static_cast<size_t>(n_total_), 0.0);
  slack_col_of_row_.assign(static_cast<size_t>(m_), -1);
  slack_row_.assign(static_cast<size_t>(n_slack), -1);
  for (int j = 0; j < n_struct_; ++j) {
    lo_[static_cast<size_t>(j)] = p.lower[static_cast<size_t>(j)];
    up_[static_cast<size_t>(j)] = p.upper[static_cast<size_t>(j)];
    cost_[static_cast<size_t>(j)] = p.objective[static_cast<size_t>(j)];
  }

  int slack_at = n_struct_;
  int art_at = first_art_;
  SparseRow terms;
  for (int r = 0; r < m_; ++r) {
    const LpConstraint& c = p.constraints[static_cast<size_t>(r)];
    double sign = resid[static_cast<size_t>(r)] < 0.0 ? -1.0 : 1.0;
    // Accumulate (duplicate variable mentions sum) and sort by column.
    terms.assign(c.terms.begin(), c.terms.end());
    std::sort(terms.begin(), terms.end());
    SparseRow& row = rows_[static_cast<size_t>(r)];
    for (const auto& [var, coef] : terms) {
      if (!row.empty() && row.back().first == var) {
        row.back().second += sign * coef;
      } else {
        row.emplace_back(var, sign * coef);
      }
    }
    row.erase(std::remove_if(row.begin(), row.end(),
                             [](const std::pair<int, double>& e) {
                               return std::abs(e.second) <= kDropTol;
                             }),
              row.end());
    beta_[static_cast<size_t>(r)] = sign * resid[static_cast<size_t>(r)];
    LpRelation signed_rel = rel[static_cast<size_t>(r)];
    if (signed_rel != LpRelation::kEq) {
      row.emplace_back(slack_at, signed_rel == LpRelation::kLe ? 1.0 : -1.0);
      slack_col_of_row_[static_cast<size_t>(r)] = slack_at;
      slack_row_[static_cast<size_t>(slack_at - n_struct_)] = r;
      if (signed_rel == LpRelation::kLe) {
        basis_[static_cast<size_t>(r)] = slack_at;
      }
      ++slack_at;
    }
    if (signed_rel != LpRelation::kLe) {
      row.emplace_back(art_at, 1.0);
      basis_[static_cast<size_t>(r)] = art_at++;
    }
    state_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = kBasic;
  }

  // The column pattern costs ceil(m / 64) words per column. It is kept
  // only if that is no more than the rows' own storage, so a tableau
  // stays O(nnz); without it a gather scans every row.
  size_t nnz = 0;
  for (const SparseRow& row : rows_) nnz += row.size();
  size_t words = static_cast<size_t>((m_ + 63) / 64) *
                 static_cast<size_t>(n_total_);
  if (words * sizeof(uint64_t) <= nnz * sizeof(SparseRow::value_type)) {
    col_words_ = (m_ + 63) / 64;
    col_bits_.assign(words, 0);
    for (int r = 0; r < m_; ++r) {
      const uint64_t bit = uint64_t{1} << (r % 64);
      for (const auto& [c, v] : rows_[static_cast<size_t>(r)]) {
        col_bits_[ColumnWordAt(c) + static_cast<size_t>(r / 64)] |= bit;
      }
    }
  }
}

Tableau Tableau::Solve(const LpProblem& problem, const SimplexOptions& options,
                       const LpBasis* warm, LpStatus* status) {
  int wasted_pivots = 0;
  if (warm != nullptr && !warm->empty()) {
    Tableau t(problem, options);
    LpStatus s = t.SolveWarm(*warm);
    if (s != LpStatus::kIterLimit) {
      *status = s;
      return t;
    }
    wasted_pivots = t.pivots_;
  }
  Tableau t(problem, options);
  *status = t.SolveCold();
  t.pivots_ += wasted_pivots;
  t.warm_fell_back_ = warm != nullptr && !warm->empty();
  return t;
}

double Tableau::Coef(int r, int c) const {
  const SparseRow& row = rows_[static_cast<size_t>(r)];
  auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const std::pair<int, double>& e, int col) { return e.first < col; });
  return (it != row.end() && it->first == c) ? it->second : 0.0;
}

template <typename F>
void Tableau::ForEachInColumn(int c, F&& f) const {
  if (col_words_ == 0) {
    for (int r = 0; r < m_; ++r) {
      double v = Coef(r, c);
      if (v != 0.0) f(r, v);
    }
    return;
  }
  const uint64_t* words = col_bits_.data() + ColumnWordAt(c);
  for (int w = 0; w < col_words_; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      int r = w * 64 + std::countr_zero(bits);
      double v = Coef(r, c);
      if (v != 0.0) f(r, v);
    }
  }
}

void Tableau::GatherColumn(int c, Column* col) const {
  col->clear();
  ForEachInColumn(c, [col](int r, double v) { col->emplace_back(r, v); });
  DBD_DCHECK(ColumnMatchesRowScan(c, *col));
}

/// The column pattern's invariant: `col` is exactly what a scan of every
/// row finds for column c, in row order.
bool Tableau::ColumnMatchesRowScan(int c, const Column& col) const {
  size_t k = 0;
  for (int r = 0; r < m_; ++r) {
    double v = Coef(r, c);
    if (v == 0.0) continue;
    if (k == col.size() || col[k] != std::make_pair(r, v)) return false;
    ++k;
  }
  return k == col.size();
}

double Tableau::NonbasicValue(int j) const {
  return state_[static_cast<size_t>(j)] == kAtUpper
             ? up_[static_cast<size_t>(j)]
             : lo_[static_cast<size_t>(j)];
}

/// Nonbasic column j moved by `delta`: every basic value absorbs it.
void Tableau::ShiftBasics(int j, double delta) {
  if (delta == 0.0) return;
  ForEachInColumn(j, [this, delta](int r, double a) {
    beta_[static_cast<size_t>(r)] -= a * delta;
  });
}

void Tableau::ComputeReducedCosts(const std::vector<double>& cost) {
  // z_j = c_j - c_B^T B^{-1} A_j, maintained densely by PivotTo after this.
  z_ = cost;
  for (int r = 0; r < m_; ++r) {
    double cb = cost[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
    if (cb == 0.0) continue;
    for (const auto& [col, val] : rows_[static_cast<size_t>(r)]) {
      z_[static_cast<size_t>(col)] -= cb * val;
    }
  }
  for (int r = 0; r < m_; ++r) {
    z_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = 0.0;
  }
}

/// Replaces row `leave`'s basic column by `enter` (whose tableau column
/// is `col`), the leaving column settling at `leave_value` (one of its
/// bounds). The entering column moves by exactly what that takes, and
/// every other basic value follows.
void Tableau::PivotTo(int leave, int enter, double leave_value,
                      const Column& col) {
  double piv = 0.0;
  for (const auto& [r, a] : col) {
    if (r == leave) piv = a;
  }
  const size_t lv = static_cast<size_t>(leave);
  double delta = (beta_[lv] - leave_value) / piv;
  double entered = NonbasicValue(enter) + delta;
  for (const auto& [r, a] : col) {
    if (r != leave) beta_[static_cast<size_t>(r)] -= a * delta;
  }
  beta_[lv] = entered;
  int out = basis_[lv];
  state_[static_cast<size_t>(out)] =
      leave_value == lo_[static_cast<size_t>(out)] ? kAtLower : kAtUpper;
  state_[static_cast<size_t>(enter)] = kBasic;
  basis_[lv] = enter;

  SparseRow& prow = rows_[lv];
  if (piv != 1.0) {
    for (auto& e : prow) e.second /= piv;
  }
  for (const auto& [r, a] : col) {
    if (r == leave || std::abs(a) < kDropTol) continue;
    AddScaled(r, prow, -a);
  }
  double zf = z_[static_cast<size_t>(enter)];
  if (std::abs(zf) > kDropTol) {
    for (const auto& [c, val] : prow) z_[static_cast<size_t>(c)] -= zf * val;
  }
  z_[static_cast<size_t>(enter)] = 0.0;
  ++pivots_;
}

LpStatus Tableau::Primal() {
  Column col;
  const double eps = options_.eps;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Entering column: the most attractive reduced cost (Dantzig) in the
    // direction its bound state allows, falling back to Bland's rule
    // (lowest index) when cycling is suspected.
    int enter = -1;
    bool bland = iter > 4 * (m_ + n_total_);
    double best = eps;
    for (int j = 0; j < n_total_; ++j) {
      const size_t uj = static_cast<size_t>(j);
      signed char s = state_[uj];
      if (s == kBasic || lo_[uj] == up_[uj]) continue;
      double gain = s == kAtLower ? -z_[uj] : z_[uj];
      if (gain <= eps) continue;
      if (bland) {
        enter = j;
        break;
      }
      if (gain > best) {
        best = gain;
        enter = j;
      }
    }
    if (enter < 0) return LpStatus::kOptimal;

    // Ratio test: the entering column moves in direction `dir` until a
    // basic value hits a bound or it reaches its own opposite bound.
    double dir = state_[static_cast<size_t>(enter)] == kAtLower ? 1.0 : -1.0;
    GatherColumn(enter, &col);
    int leave = -1;
    double leave_value = 0.0;
    double best_ratio = kInf;
    for (const auto& [r, a] : col) {
      double alpha = a * dir;  // the basic value falls by alpha per unit
      int b = basis_[static_cast<size_t>(r)];
      double ratio;
      double target;
      if (alpha > eps) {
        target = lo_[static_cast<size_t>(b)];
        ratio = (beta_[static_cast<size_t>(r)] - target) / alpha;
      } else if (alpha < -eps && std::isfinite(up_[static_cast<size_t>(b)])) {
        target = up_[static_cast<size_t>(b)];
        ratio = (target - beta_[static_cast<size_t>(r)]) / -alpha;
      } else {
        continue;
      }
      ratio = std::max(ratio, 0.0);
      if (ratio < best_ratio - eps ||
          (ratio < best_ratio + eps &&
           (leave < 0 || b < basis_[static_cast<size_t>(leave)]))) {
        best_ratio = ratio;
        leave = r;
        leave_value = target;
      }
    }
    double span =
        up_[static_cast<size_t>(enter)] - lo_[static_cast<size_t>(enter)];
    if (leave < 0 && !std::isfinite(span)) return LpStatus::kUnbounded;
    if (leave < 0 || span <= best_ratio) {
      // Bound flip: the entering column crosses its box, no basis change.
      for (const auto& [r, a] : col) {
        beta_[static_cast<size_t>(r)] -= a * dir * span;
      }
      state_[static_cast<size_t>(enter)] = dir > 0 ? kAtUpper : kAtLower;
      continue;
    }
    PivotTo(leave, enter, leave_value, col);
  }
  return LpStatus::kIterLimit;
}

LpStatus Tableau::Dual(double cutoff) {
  Column col;
  const double eps = options_.eps;
  const bool check_cutoff = cutoff < kInf;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Leaving row: the largest bound violation (lowest row on ties); under
    // the anti-cycling fallback, the violated basic column of lowest index.
    bool bland = iter > 4 * (m_ + n_total_);
    int leave = -1;
    double worst = kPrimalTol;
    double target = 0.0;
    for (int r = 0; r < m_; ++r) {
      int b = basis_[static_cast<size_t>(r)];
      double v = beta_[static_cast<size_t>(r)];
      double lo = lo_[static_cast<size_t>(b)];
      double up = up_[static_cast<size_t>(b)];
      double violation = v < lo ? lo - v : v - up;
      if (violation <= kPrimalTol) continue;
      bool take = bland ? (leave < 0 || b < basis_[static_cast<size_t>(leave)])
                        : violation > worst;
      if (take) {
        worst = violation;
        leave = r;
        target = v < lo ? lo : up;
      }
    }
    if (leave < 0) return LpStatus::kOptimal;
    if (check_cutoff) {
      double magnitude = 0.0;
      double bound = BasicObjective(&magnitude);
      if (bound >= cutoff + kCutoffMargin * (1.0 + std::abs(cutoff) +
                                             magnitude)) {
        return LpStatus::kCutoff;
      }
    }

    // Entering column: the dual ratio test over the leaving row. Moving
    // nonbasic x_j along its feasible direction changes the leaving value
    // by -a_j per unit; only columns pushing it toward `target` qualify,
    // and the smallest |z_j / a_j| keeps every reduced cost dual feasible.
    double toward = target > beta_[static_cast<size_t>(leave)] ? 1.0 : -1.0;
    int enter = -1;
    double best_ratio = kInf;
    for (const auto& [j, a] : rows_[static_cast<size_t>(leave)]) {
      const size_t uj = static_cast<size_t>(j);
      signed char s = state_[uj];
      if (s == kBasic || lo_[uj] == up_[uj]) continue;
      double dir = s == kAtLower ? 1.0 : -1.0;
      if (-a * dir * toward <= eps) continue;
      double dj = std::max(0.0, dir * z_[uj]);
      double ratio = dj / std::abs(a);
      if (ratio < best_ratio - eps) {
        best_ratio = ratio;
        enter = j;
      }
    }
    if (enter < 0) return LpStatus::kInfeasible;  // dual unbounded
    GatherColumn(enter, &col);
    PivotTo(leave, enter, target, col);
  }
  return LpStatus::kIterLimit;
}

bool Tableau::PrimalFeasible() const {
  for (int r = 0; r < m_; ++r) {
    int b = basis_[static_cast<size_t>(r)];
    double v = beta_[static_cast<size_t>(r)];
    if (v < lo_[static_cast<size_t>(b)] - kPrimalTol ||
        v > up_[static_cast<size_t>(b)] + kPrimalTol) {
      return false;
    }
  }
  return true;
}

/// Puts every boxed nonbasic column at the bound its reduced cost
/// prefers. A column unbounded above with a negative reduced cost has no
/// such bound: its cost is shifted so that the reduced cost is zero.
/// Returns whether any cost was shifted; the basis is dual feasible for
/// the (shifted) costs either way.
bool Tableau::MakeDualFeasible() {
  bool shifted = false;
  for (int j = 0; j < n_total_; ++j) {
    signed char s = state_[static_cast<size_t>(j)];
    double lo = lo_[static_cast<size_t>(j)];
    double up = up_[static_cast<size_t>(j)];
    if (s == kBasic || lo == up) continue;
    double z = z_[static_cast<size_t>(j)];
    if (s == kAtLower && z < -options_.eps) {
      if (!std::isfinite(up)) {
        z_[static_cast<size_t>(j)] = 0.0;
        shifted = true;
        continue;
      }
      state_[static_cast<size_t>(j)] = kAtUpper;
      ShiftBasics(j, up - lo);
    } else if (s == kAtUpper && z > options_.eps) {
      state_[static_cast<size_t>(j)] = kAtLower;
      ShiftBasics(j, lo - up);
    }
  }
  return shifted;
}

LpStatus Tableau::SolveCold() {
  if (first_art_ < n_total_) {
    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1(static_cast<size_t>(n_total_), 0.0);
    for (int j = first_art_; j < n_total_; ++j) {
      phase1[static_cast<size_t>(j)] = 1.0;
    }
    ComputeReducedCosts(phase1);
    LpStatus s1 = Primal();
    if (s1 == LpStatus::kIterLimit) return s1;
    double infeasibility = 0.0;
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<size_t>(r)] >= first_art_) {
        infeasibility += beta_[static_cast<size_t>(r)];
      }
    }
    if (s1 == LpStatus::kUnbounded || infeasibility > 1e-6) {
      return LpStatus::kInfeasible;
    }
    // Feasible within tolerance: an artificial still basic carries only
    // round-off. Zero it, or a later dual pass would chase that residue
    // in a row it cannot leave and call the LP infeasible.
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<size_t>(r)] >= first_art_) {
        beta_[static_cast<size_t>(r)] = 0.0;
      }
    }
  }
  // Phase 2: artificials are fixed at zero, so nonbasic ones never
  // re-enter and basic ones (redundant rows) block any step that would
  // give them value.
  for (int j = first_art_; j < n_total_; ++j) up_[static_cast<size_t>(j)] = 0.0;
  ComputeReducedCosts(cost_);
  return Primal();
}

LpStatus Tableau::SolveWarm(const LpBasis& basis) {
  // Canonical ids -> columns; ids naming nothing in this problem are
  // ignored (a stale basis only costs pivots).
  std::vector<char> want(static_cast<size_t>(n_total_), 0);
  for (int id : basis.basic) {
    if (id >= 0 && id < n_struct_) {
      want[static_cast<size_t>(id)] = 1;
    } else if (id >= n_struct_ && id - n_struct_ < m_) {
      int c = slack_col_of_row_[static_cast<size_t>(id - n_struct_)];
      if (c >= 0) want[static_cast<size_t>(c)] = 1;
    }
  }
  for (int v : basis.at_upper) {
    if (v < 0 || v >= n_struct_ || want[static_cast<size_t>(v)]) continue;
    double lo = lo_[static_cast<size_t>(v)];
    double up = up_[static_cast<size_t>(v)];
    if (std::isfinite(up) && up != lo) {
      state_[static_cast<size_t>(v)] = kAtUpper;
      ShiftBasics(v, up - lo);
    }
  }

  // Crash: each wanted column pivots into the row, among those whose
  // basic column is unwanted, where its entry is largest (lowest row on
  // ties). A column with no such entry stays nonbasic. Only wanted
  // columns enter, so every displaced column is a slack or an
  // artificial and settles at zero.
  Column col;
  for (int c = 0; c < first_art_; ++c) {
    const size_t uc = static_cast<size_t>(c);
    if (!want[uc] || state_[uc] == kBasic) continue;
    GatherColumn(c, &col);
    int row = -1;
    double best = kCrashPivotTol;
    for (const auto& [r, a] : col) {
      if (want[static_cast<size_t>(basis_[static_cast<size_t>(r)])]) continue;
      if (std::abs(a) > best) {
        best = std::abs(a);
        row = r;
      }
    }
    if (row >= 0) PivotTo(row, c, 0.0, col);
  }

  // Artificials are fixed at zero from here on: a basic one carrying
  // value is a primal infeasibility like any other.
  for (int j = first_art_; j < n_total_; ++j) up_[static_cast<size_t>(j)] = 0.0;
  ComputeReducedCosts(cost_);
  if (PrimalFeasible()) return Primal();
  bool shifted = MakeDualFeasible();
  // No cutoff: under shifted costs the objective is no bound.
  LpStatus s = Dual(kInf);
  if (s != LpStatus::kOptimal) return s;  // a dual ray needs no costs
  if (shifted) ComputeReducedCosts(cost_);
  return Primal();
}

void Tableau::SetBounds(int var, double lo, double up) {
  const size_t v = static_cast<size_t>(var);
  if (state_[v] == kBasic) {
    lo_[v] = lo;
    up_[v] = up;
    return;
  }
  double before = NonbasicValue(var);
  lo_[v] = lo;
  up_[v] = up;
  if (state_[v] == kAtUpper && (!std::isfinite(up) || up == lo)) {
    state_[v] = kAtLower;
  }
  ShiftBasics(var, NonbasicValue(var) - before);
}

LpStatus Tableau::Reoptimize(double cutoff) {
  LpStatus s = Dual(cutoff);
  if (s != LpStatus::kOptimal) return s;
  return Primal();
}

std::vector<double> Tableau::Values() const {
  std::vector<double> values(static_cast<size_t>(n_struct_));
  for (int j = 0; j < n_struct_; ++j) {
    values[static_cast<size_t>(j)] = NonbasicValue(j);
  }
  for (int r = 0; r < m_; ++r) {
    int b = basis_[static_cast<size_t>(r)];
    if (b < n_struct_) {
      values[static_cast<size_t>(b)] =
          std::clamp(beta_[static_cast<size_t>(r)], lo_[static_cast<size_t>(b)],
                     up_[static_cast<size_t>(b)]);
    }
  }
  return values;
}

double Tableau::Objective() const {
  std::vector<double> values = Values();
  double obj = 0.0;
  for (int j = 0; j < n_struct_; ++j) {
    obj += cost_[static_cast<size_t>(j)] * values[static_cast<size_t>(j)];
  }
  return obj;
}

double Tableau::BasicObjective(double* magnitude) const {
  // Only structural columns carry a cost.
  double obj = 0.0;
  double scale = 0.0;
  auto add = [&](double c, double x) {
    obj += c * x;
    scale += std::abs(c * x);
  };
  for (int j = 0; j < n_struct_; ++j) {
    if (state_[static_cast<size_t>(j)] != kBasic) {
      add(cost_[static_cast<size_t>(j)], NonbasicValue(j));
    }
  }
  for (int r = 0; r < m_; ++r) {
    int b = basis_[static_cast<size_t>(r)];
    if (b < n_struct_) {
      add(cost_[static_cast<size_t>(b)], beta_[static_cast<size_t>(r)]);
    }
  }
  *magnitude = scale;
  return obj;
}

LpBasis Tableau::Basis() const {
  LpBasis basis;
  for (int r = 0; r < m_; ++r) {
    int b = basis_[static_cast<size_t>(r)];
    if (b < n_struct_) {
      basis.basic.push_back(b);
    } else if (b < first_art_) {
      basis.basic.push_back(n_struct_ +
                            slack_row_[static_cast<size_t>(b - n_struct_)]);
    }
    // else: an artificial basic at zero (redundant row) is not named.
  }
  std::sort(basis.basic.begin(), basis.basic.end());
  for (int j = 0; j < n_struct_; ++j) {
    if (state_[static_cast<size_t>(j)] == kAtUpper) basis.at_upper.push_back(j);
  }
  return basis;
}

LpSolution Tableau::Solution(LpStatus status) const {
  LpSolution sol;
  sol.status = status;
  sol.pivots = pivots_;
  if (status != LpStatus::kOptimal) return sol;
  sol.values = Values();
  sol.objective = Objective();
  sol.basis = Basis();
  return sol;
}

/// rows_[r] += f * src over sorted sparse rows; drops |value| <=
/// kDropTol. Keeps the column pattern, if any, in step: a fill-in sets
/// its bit, a dropped entry clears it.
void Tableau::AddScaled(int r, const SparseRow& src, double f) {
  SparseRow& dst = rows_[static_cast<size_t>(r)];
  const bool pattern = col_words_ > 0;
  const size_t row_word = static_cast<size_t>(r / 64);
  const uint64_t bit = uint64_t{1} << (r % 64);
  auto word = [&](int c) -> uint64_t& {
    return col_bits_[ColumnWordAt(c) + row_word];
  };
  scratch_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < dst.size() || j < src.size()) {
    if (j >= src.size() || (i < dst.size() && dst[i].first < src[j].first)) {
      scratch_.push_back(dst[i]);
      ++i;
    } else if (i >= dst.size() || src[j].first < dst[i].first) {
      double v = f * src[j].second;
      if (std::abs(v) > kDropTol) {
        scratch_.emplace_back(src[j].first, v);
        if (pattern) word(src[j].first) |= bit;
      }
      ++j;
    } else {
      double v = dst[i].second + f * src[j].second;
      if (std::abs(v) > kDropTol) {
        scratch_.emplace_back(dst[i].first, v);
      } else if (pattern) {
        word(dst[i].first) &= ~bit;
      }
      ++i;
      ++j;
    }
  }
  dst.swap(scratch_);
}

LpSolution SolveLp(const LpProblem& problem, const SimplexOptions& options,
                   const LpBasis* warm) {
  LpStatus status;
  Tableau t = Tableau::Solve(problem, options, warm, &status);
  return t.Solution(status);
}

}  // namespace dbdesign
