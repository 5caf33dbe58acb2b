// Euclidean projections onto the feasible region of the one-shot problem
// P_{3,t}: a box (relaxed selection fractions and ρ) intersected with the
// budget halfspace (5a) and the minimum-participation halfspace (5b).
//
// Single-set projections are closed-form. The intersection is handled by
// dual coordinate ascent on the projection QP's KKT system:
//   x(λ) = clamp(y − Σ_s λ_s a_s),  λ_s ≥ 0,  λ_s·(a_s·x − b_s) = 0,
// cyclically re-solving each λ_s given the others. The dual is concave and
// smooth, so cyclic ascent converges to the exact projection — unlike plain
// Dykstra over box/halfspace pairs, which stalls on polyhedral corners
// (observed experimentally; see tests/solver_test.cpp). A λ_s whose base
// y − Σ_{t≠s} λ_t a_t has not changed since its last solve is not re-solved.
//
// Each λ_s solves g(λ) = a·clamp(base − λa, lo, hi) − b = 0 by a fixed
// procedure: double an upper bracket from 1/‖a‖² while g > 0, then bisect.
// Only the signs of g at the points that procedure visits reach the result.
// For finite, bounded inputs the computed g is non-increasing in λ (every
// term is monotone and rounded addition is monotone in each operand), so a
// few exact evaluations near the root — a safeguarded Newton step on the
// piecewise-linear g — decide the sign at every other visited point, and the
// procedure is replayed evaluating g only where they do not. The result is
// bit-identical to evaluating g at every step (DESIGN.md §5.3); non-finite
// input evaluates at every step.
#pragma once

#include <cstddef>
#include <vector>

namespace fedl::solver {

// A halfspace {x : a·x <= b}. Encode a >= constraint by negating a and b.
struct Halfspace {
  std::vector<double> a;
  double b = 0.0;
};

// Box + halfspace intersection description.
struct FeasibleSet {
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<Halfspace> halfspaces;

  std::size_t dim() const { return lo.size(); }
  bool contains(const std::vector<double>& x, double tol = 1e-9) const;
};

// In-place projection onto the box.
void project_box(const std::vector<double>& lo, const std::vector<double>& hi,
                 std::vector<double>& x);

// In-place projection onto one halfspace (no-op when already inside).
void project_halfspace(const Halfspace& h, std::vector<double>& x);

// Exact Euclidean projection onto box ∩ {a·x <= b} via the KKT system:
// P(y) = clamp(y − λa) with λ ≥ 0 found by the bisection described above.
void project_box_halfspace(const std::vector<double>& lo,
                           const std::vector<double>& hi, const Halfspace& h,
                           std::vector<double>& x);

struct ProjectionOptions {
  std::size_t max_sweeps = 200;   // dual coordinate-ascent sweeps
  double tolerance = 1e-12;       // max |Δλ| per sweep to declare converged
};

// Scratch project_intersection keeps between calls (grow-only), so a solver
// loop projecting many points allocates nothing once warm.
struct ProjectionWorkspace {
  std::vector<double> y;       // the point being projected
  std::vector<double> lambda;  // one multiplier per halfspace
  std::vector<double> base;    // y − Σ_{t≠s} λ_t a_t
  std::vector<unsigned char> stale;  // λ_s to re-solve
};

// Euclidean projection of x onto the intersection, in place. Sets
// *converged (if non-null) to whether the sweep tolerance was met. An empty
// intersection shows up as non-convergence — callers must validate with
// FeasibleSet::contains.
void project_intersection(const FeasibleSet& set, std::vector<double>& x,
                          ProjectionWorkspace& ws,
                          const ProjectionOptions& opts = {},
                          bool* converged = nullptr);

// As above, returning the projected point.
std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         const ProjectionOptions& opts = {},
                                         bool* converged = nullptr);

}  // namespace fedl::solver
