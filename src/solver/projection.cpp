#include "solver/projection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/math_util.h"
#include "obs/metrics.h"

namespace fedl::solver {

bool FeasibleSet::contains(const std::vector<double>& x, double tol) const {
  FEDL_CHECK_EQ(x.size(), dim());
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i] < lo[i] - tol || x[i] > hi[i] + tol) return false;
  for (const auto& h : halfspaces)
    if (dot(h.a, x) > h.b + tol) return false;
  return true;
}

void project_box(const std::vector<double>& lo, const std::vector<double>& hi,
                 std::vector<double>& x) {
  FEDL_CHECK_EQ(x.size(), lo.size());
  FEDL_CHECK_EQ(x.size(), hi.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = clamp(x[i], lo[i], hi[i]);
}

void project_halfspace(const Halfspace& h, std::vector<double>& x) {
  FEDL_CHECK_EQ(x.size(), h.a.size());
  const double viol = dot(h.a, x) - h.b;
  if (viol <= 0.0) return;
  double a_sq = 0.0;
  for (double ai : h.a) a_sq += ai * ai;
  if (a_sq == 0.0) return;  // degenerate constraint (0 <= b violated) — skip
  const double scale = viol / a_sq;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] -= scale * h.a[i];
}

namespace {

// Multiplier-solve telemetry: g evaluations are tallied in a local and added
// once per projection, never per evaluation.
const obs::Counter& multiplier_solves() {
  static const obs::Counter c("solver.multiplier_solves");
  return c;
}
const obs::Counter& multiplier_evals() {
  static const obs::Counter c("solver.multiplier_evals");
  return c;
}

struct MultiplierTally {
  std::uint64_t solves = 0;
  std::uint64_t evals = 0;
  MultiplierTally() = default;
  MultiplierTally(const MultiplierTally&) = delete;
  MultiplierTally& operator=(const MultiplierTally&) = delete;
  ~MultiplierTally() {
    multiplier_solves().add(solves);
    multiplier_evals().add(evals);
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Exact evaluations of g(λ) = a·clamp(base − λa, lo, hi) − b, the function
// solve_multiplier bisects, with the sign of every evaluation recorded: the
// largest λ seen with g > 0 (pos_) and the smallest with g <= 0 (neg_).
//
// g is evaluated exactly as a plain strictly ordered sum. When the inputs
// are finite and bounded (see eval_at_zero), that computed g is
// non-increasing in λ: each term is monotone in λ and rounded addition is
// monotone in each operand. Then any λ <= pos_ is known positive and any
// λ >= neg_ known non-positive, and positive() answers from the bracket
// what an evaluation would return. Otherwise every query evaluates.
class MultiplierSearch {
 public:
  MultiplierSearch(const std::vector<double>& lo,
                   const std::vector<double>& hi, const Halfspace& h,
                   const std::vector<double>& base, MultiplierTally& tally)
      : lo_(lo), hi_(hi), h_(h), base_(base), tally_(tally) {}

  // g(0) in the same pass that forms ‖a‖² (in the reference order), the
  // slope at 0 and the monotonicity precondition: every operand finite and
  // |b| + Σ|a_i|·max(|lo_i|, |hi_i|) far below overflow, so no term or
  // partial sum can reach ±inf (where inf + (−inf) = NaN breaks the order).
  double eval_at_zero(double* a_sq, double* slope) {
    ++tally_.evals;
    const std::vector<double>& a = h_.a;
    double v = 0.0;
    double sq = 0.0;
    double s = 0.0;
    double bound = std::abs(h_.b);
    bool finite = true;
    for (std::size_t i = 0; i < base_.size(); ++i) {
      const double u = base_[i] - 0.0 * a[i];  // NaN for an infinite a[i]
      v += a[i] * clamp(u, lo_[i], hi_[i]);
      sq += a[i] * a[i];
      if (u > lo_[i] && u < hi_[i]) s -= a[i] * a[i];
      finite = finite && std::isfinite(base_[i]) && std::isfinite(a[i]) &&
               std::isfinite(lo_[i]) && std::isfinite(hi_[i]);
      bound += std::abs(a[i]) * std::max(std::abs(lo_[i]), std::abs(hi_[i]));
    }
    v -= h_.b;
    monotone_ = finite && bound < 1e300;  // false for a NaN or inf bound
    record(0.0, v);
    *a_sq = sq;
    *slope = s;
    return v;
  }

  // Exact g(λ); *slope gets −Σa_i² over the coordinates unclamped at λ,
  // the slope of the linear piece of g through λ.
  double eval(double lambda, double* slope) {
    ++tally_.evals;
    const std::vector<double>& a = h_.a;
    double v = 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < base_.size(); ++i) {
      const double u = base_[i] - lambda * a[i];
      v += a[i] * clamp(u, lo_[i], hi_[i]);
      if (u > lo_[i] && u < hi_[i]) s -= a[i] * a[i];
    }
    v -= h_.b;
    record(lambda, v);
    *slope = s;
    return v;
  }

  // g(λ) > 0, from the bracket when it decides, else by evaluation.
  bool positive(double lambda) {
    if (monotone_) {
      if (lambda <= pos_) return true;
      if (has_neg_ && lambda >= neg_) return false;
    }
    double slope = 0.0;
    return eval(lambda, &slope) > 0.0;
  }

  // Pins pos_ and neg_ around the root with a few exact evaluations before
  // the bisection is replayed: Newton steps on the piecewise-linear g from
  // λ = 0, kept strictly inside (pos_, neg_). A Newton target at or past an
  // end of the bracket means the root is within rounding noise of that end,
  // so the next point probes 1, 2, 4, ... ulps inside it instead. Without a
  // slope, the bracket is halved (or, while no non-positive point is known,
  // doubled). A no-op for non-monotone inputs, where the bracket decides
  // nothing.
  void seed(double g0, double slope0, double a_sq) {
    if (!monotone_) return;
    double lambda = 0.0;
    double g = g0;
    double slope = slope0;
    std::uint64_t probe = 1;  // ulps
    for (int it = 0; it < kSeedSteps; ++it) {
      const double target = slope < 0.0 ? lambda - g / slope : lambda;
      double next = target;
      if (inside(target)) {
        probe = 1;
      } else if (slope < 0.0 && g > 0.0 && target <= pos_) {
        next = ulps_from(pos_, 1, probe);
        probe *= 2;
      } else if (slope < 0.0 && g <= 0.0 && target >= neg_) {
        next = ulps_from(neg_, -1, probe);
        probe *= 2;
      }
      if (!inside(next))
        next = has_neg_ ? 0.5 * (pos_ + neg_)
                        : std::max(2.0 * pos_, 1.0 / a_sq);
      if (!inside(next)) return;  // pos_ and neg_ are adjacent doubles
      lambda = next;
      g = eval(lambda, &slope);
    }
  }

 private:
  static constexpr int kSeedSteps = 12;

  // The double `ulps` representable steps from x >= 0 in direction dir
  // (x itself when that would cross zero).
  static double ulps_from(double x, int dir, std::uint64_t ulps) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    if (dir < 0) return bits > ulps ? std::bit_cast<double>(bits - ulps) : x;
    return std::bit_cast<double>(bits + ulps);
  }

  bool inside(double lambda) const {
    return lambda > pos_ && (!has_neg_ || lambda < neg_);
  }

  void record(double lambda, double v) {
    if (v > 0.0) {
      pos_ = std::max(pos_, lambda);
    } else if (!has_neg_ || lambda < neg_) {
      neg_ = lambda;
      has_neg_ = true;
    }
  }

  const std::vector<double>& lo_;
  const std::vector<double>& hi_;
  const Halfspace& h_;
  const std::vector<double>& base_;
  MultiplierTally& tally_;
  bool monotone_ = false;
  double pos_ = -std::numeric_limits<double>::infinity();
  double neg_ = 0.0;
  bool has_neg_ = false;
};

// Solves λ ≥ 0 with a·clamp(base − λa, lo, hi) = b when the constraint is
// violated at λ = 0, by bracketing + bisection (g is non-increasing in λ).
// The bracketing and bisection steps are those of the plain loop, outcome
// for outcome; MultiplierSearch only skips the evaluations whose sign it
// already knows, and the bisection stops at its fixed point.
double solve_multiplier(const std::vector<double>& lo,
                        const std::vector<double>& hi, const Halfspace& h,
                        const std::vector<double>& base,
                        MultiplierTally& tally) {
  ++tally.solves;
  MultiplierSearch g(lo, hi, h, base, tally);
  double a_sq = 0.0;
  double slope = 0.0;
  const double g0 = g.eval_at_zero(&a_sq, &slope);
  if (g0 <= 0.0) return 0.0;
  if (a_sq == 0.0) return 0.0;  // degenerate: cannot fix by moving along a
  g.seed(g0, slope, a_sq);

  double lo_l = 0.0;
  double hi_l = 1.0 / a_sq;
  for (int it = 0; it < 200 && g.positive(hi_l); ++it) {
    lo_l = hi_l;
    hi_l *= 2.0;
  }
  for (int it = 0; it < 100; ++it) {
    const double prev_lo = lo_l;
    const double prev_hi = hi_l;
    const double mid = 0.5 * (lo_l + hi_l);
    (g.positive(mid) ? lo_l : hi_l) = mid;
    // An unchanged (lo, hi) makes every later step repeat this one.
    if (same_bits(lo_l, prev_lo) && same_bits(hi_l, prev_hi)) break;
  }
  return 0.5 * (lo_l + hi_l);
}

// v −= c·a, element by element.
void subtract_scaled(double c, const std::vector<double>& a,
                     std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] -= c * a[i];
}

void project_box_halfspace(const std::vector<double>& lo,
                           const std::vector<double>& hi, const Halfspace& h,
                           std::vector<double>& x, MultiplierTally& tally) {
  FEDL_CHECK_EQ(x.size(), h.a.size());
  const double lambda = solve_multiplier(lo, hi, h, x, tally);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = clamp(x[i] - lambda * h.a[i], lo[i], hi[i]);
}

}  // namespace

void project_box_halfspace(const std::vector<double>& lo,
                           const std::vector<double>& hi, const Halfspace& h,
                           std::vector<double>& x) {
  MultiplierTally tally;
  project_box_halfspace(lo, hi, h, x, tally);
}

void project_intersection(const FeasibleSet& set, std::vector<double>& x,
                          ProjectionWorkspace& ws,
                          const ProjectionOptions& opts, bool* converged) {
  FEDL_CHECK_EQ(x.size(), set.dim());
  const std::size_t n = x.size();
  const std::size_t k = set.halfspaces.size();

  if (k == 0) {
    project_box(set.lo, set.hi, x);
    if (converged) *converged = true;
    return;
  }
  if (k == 1) {
    project_box_halfspace(set.lo, set.hi, set.halfspaces[0], x);
    if (converged) *converged = true;
    return;
  }
  for (const auto& h : set.halfspaces) FEDL_CHECK_EQ(h.a.size(), n);

  // Dual coordinate ascent: x(λ) = clamp(y − Σ λ_s a_s); cyclically re-solve
  // each λ_s exactly given the others. λ_s is stale while some other λ_t
  // changed since its last solve; a fresh λ_s would see the same base and
  // solve to the same value (|Δλ_s| = 0), so it is not re-solved.
  MultiplierTally tally;
  std::vector<double>& y = ws.y;
  std::vector<double>& lambda = ws.lambda;
  std::vector<double>& base = ws.base;
  y = x;
  lambda.assign(k, 0.0);
  ws.stale.assign(k, 1);

  bool stationary = false;
  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double max_change = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      if (!ws.stale[s]) continue;
      // base = y − Σ_{t≠s} λ_t a_t, subtracted in ascending t per coordinate
      base = y;
      for (std::size_t t = 0; t < k; ++t)
        if (t != s) subtract_scaled(lambda[t], set.halfspaces[t].a, base);
      const double new_lambda =
          solve_multiplier(set.lo, set.hi, set.halfspaces[s], base, tally);
      max_change = std::max(max_change, std::abs(new_lambda - lambda[s]));
      if (!same_bits(new_lambda, lambda[s]))
        for (std::size_t t = 0; t < k; ++t) ws.stale[t] = 1;
      lambda[s] = new_lambda;
      ws.stale[s] = 0;
    }
    if (max_change < opts.tolerance) {
      stationary = true;
      break;
    }
  }

  x = y;
  for (std::size_t t = 0; t < k; ++t)
    subtract_scaled(lambda[t], set.halfspaces[t].a, x);
  project_box(set.lo, set.hi, x);
  // Dual coordinate ascent converges linearly but can be slow for nearly
  // parallel halfspaces; primal feasibility of the final iterate is the
  // practically meaningful convergence signal (dual stationarity only
  // sharpens the last few digits of the projection).
  const bool ok = stationary || set.contains(x, 1e-7);
  if (converged) *converged = ok && set.contains(x, 1e-6);
}

std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         const ProjectionOptions& opts,
                                         bool* converged) {
  ProjectionWorkspace ws;
  project_intersection(set, x, ws, opts, converged);
  return x;
}

}  // namespace fedl::solver
