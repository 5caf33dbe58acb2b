// Tests for the convex solver substrate: closed-form projections, Dykstra's
// algorithm against brute-force projection, the projected proximal solver
// against exhaustive grid search — validating the IPOPT substitution
// (DESIGN.md §5.3) — and the bracket-replay multiplier solve against the
// plain evaluate-every-step projection, bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/fedl_strategy.h"
#include "obs/digest.h"
#include "obs/metrics.h"
#include "sim/environment.h"
#include "solver/projection.h"
#include "solver/prox_solver.h"

namespace fedl::solver {
namespace {

TEST(ProjectBox, ClampsCoordinates) {
  std::vector<double> x = {-1.0, 0.5, 3.0};
  project_box({0, 0, 0}, {1, 1, 1}, x);
  EXPECT_EQ(x, (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(ProjectHalfspace, NoopInside) {
  Halfspace h{{1.0, 1.0}, 5.0};
  std::vector<double> x = {1.0, 2.0};
  project_halfspace(h, x);
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0}));
}

TEST(ProjectHalfspace, OrthogonalProjectionOutside) {
  // {x + y <= 0}; projecting (1,1) gives (0,0).
  Halfspace h{{1.0, 1.0}, 0.0};
  std::vector<double> x = {1.0, 1.0};
  project_halfspace(h, x);
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

bool l2_norm_zero(const Halfspace& h) {
  double s = 0;
  for (double a : h.a) s += a * a;
  return s < 1e-12;
}

TEST(ProjectHalfspace, ResultSatisfiesConstraintAndIsClosest) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Halfspace h{{rng.normal(), rng.normal(), rng.normal()}, rng.normal()};
    if (l2_norm_zero(h)) continue;
    std::vector<double> x = {rng.normal() * 3, rng.normal() * 3,
                             rng.normal() * 3};
    std::vector<double> p = x;
    project_halfspace(h, p);
    double ax = 0, ap = 0;
    for (int i = 0; i < 3; ++i) {
      ax += h.a[i] * x[i];
      ap += h.a[i] * p[i];
    }
    EXPECT_LE(ap, h.b + 1e-9);
    if (ax <= h.b) {
      EXPECT_EQ(p, x);  // inside: untouched
    }
  }
}

// Brute-force projection onto the feasible set by dense sampling + local
// refinement (2-D only; used as oracle).
std::vector<double> brute_force_project(const FeasibleSet& set,
                                        const std::vector<double>& x) {
  double best_d = 1e100;
  std::vector<double> best = {0, 0};
  const int grid = 400;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      std::vector<double> cand = {
          set.lo[0] + (set.hi[0] - set.lo[0]) * i / grid,
          set.lo[1] + (set.hi[1] - set.lo[1]) * j / grid};
      if (!set.contains(cand, 1e-9)) continue;
      const double d = (cand[0] - x[0]) * (cand[0] - x[0]) +
                       (cand[1] - x[1]) * (cand[1] - x[1]);
      if (d < best_d) {
        best_d = d;
        best = cand;
      }
    }
  }
  return best;
}

class IntersectionVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntersectionVsBruteForce, MatchesOracleIn2D) {
  Rng rng(GetParam());
  FeasibleSet set;
  set.lo = {0.0, 0.0};
  set.hi = {1.0, 1.0};
  // Random budget-like halfspace a·x <= b through the box.
  Halfspace h1{{rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)},
               rng.uniform(0.5, 2.0)};
  // Random minimum-sum halfspace: x0 + x1 >= m  (encoded negated).
  const double m = rng.uniform(0.1, 0.8);
  Halfspace h2{{-1.0, -1.0}, -m};
  set.halfspaces = {h1, h2};

  std::vector<double> x = {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)};
  const auto oracle = brute_force_project(set, x);
  if (!set.contains(oracle, 1e-6)) return;  // empty-ish intersection: skip

  bool converged = false;
  const auto proj = project_intersection(set, x, {}, &converged);
  EXPECT_TRUE(converged);
  EXPECT_TRUE(set.contains(proj, 1e-5));
  // The projection must be at least as close to x as the best grid point
  // (grid resolution bounds how much closer the oracle can be).
  auto dist = [&](const std::vector<double>& p) {
    return std::hypot(p[0] - x[0], p[1] - x[1]);
  };
  EXPECT_LE(dist(proj), dist(oracle) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectionVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ProjectIntersection, AlreadyFeasibleIsFixedPoint) {
  FeasibleSet set;
  set.lo = {0, 0, 0};
  set.hi = {1, 1, 1};
  set.halfspaces = {Halfspace{{1, 1, 1}, 2.5}};
  std::vector<double> x = {0.2, 0.3, 0.4};
  const auto p = project_intersection(set, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(p[i], x[i], 1e-9);
}

TEST(ProjectIntersection, HighDimensionalFeasibility) {
  Rng rng(99);
  const std::size_t n = 40;
  FeasibleSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  Halfspace budget;
  budget.a.resize(n);
  for (auto& a : budget.a) a = rng.uniform(0.1, 12.0);
  budget.b = 30.0;
  Halfspace minsum;
  minsum.a.assign(n, -1.0);
  minsum.b = -5.0;
  set.halfspaces = {budget, minsum};

  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 2.0);
  bool converged = false;
  const auto p = project_intersection(set, x, {}, &converged);
  EXPECT_TRUE(converged);
  EXPECT_TRUE(set.contains(p, 1e-6));
}

// --- prox solver ------------------------------------------------------------------

TEST(ProxSolver, QuadraticOverBoxHasClosedForm) {
  // min (x-2)^2 + (y+1)^2 over [0,1]^2 -> (1, 0).
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) {
      (*g) = {2 * (x[0] - 2), 2 * (x[1] + 1)};
    }
    return (x[0] - 2) * (x[0] - 2) + (x[1] + 1) * (x[1] + 1);
  };
  const auto res = minimize_projected(set, {0.5, 0.5}, obj);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 0.0, 1e-5);
}

TEST(ProxSolver, LinearObjectiveHitsVertexUnderBudget) {
  // min -3x - y  s.t. x,y in [0,1], 2x + y <= 2  -> x=1, y=0... check:
  // at x=1: y <= 0 -> (1, 0) value -3; at (0.5,1): -2.5. So (1,0).
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  set.halfspaces = {Halfspace{{2, 1}, 2.0}};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) (*g) = {-3.0, -1.0};
    return -3 * x[0] - x[1];
  };
  const auto res = minimize_projected(set, {0.0, 0.0}, obj);
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 0.0, 1e-4);
}

TEST(ProxSolver, ResultBeatsRandomFeasiblePoints) {
  // Strongly convex objective with bilinear term (the structure of step (8)).
  Rng rng(7);
  const std::size_t n = 6;
  FeasibleSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.lo[n - 1] = 1.0;
  set.hi[n - 1] = 5.0;
  Halfspace minsum;
  minsum.a.assign(n, -1.0);
  minsum.a[n - 1] = 0.0;
  minsum.b = -2.0;
  set.halfspaces = {minsum};

  std::vector<double> c(n);
  for (auto& v : c) v = rng.uniform(-1.0, 1.0);
  std::vector<double> anchor(n, 0.5);
  anchor[n - 1] = 2.0;
  auto obj = [&](const std::vector<double>& x, std::vector<double>* g) {
    double val = 0.0;
    // c·x + x_0*x_last (bilinear) + ||x-anchor||^2
    val += x[0] * x[n - 1];
    for (std::size_t i = 0; i < n; ++i) {
      val += c[i] * x[i] + (x[i] - anchor[i]) * (x[i] - anchor[i]);
    }
    if (g) {
      g->assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        (*g)[i] = c[i] + 2 * (x[i] - anchor[i]);
      (*g)[0] += x[n - 1];
      (*g)[n - 1] += x[0];
    }
    return val;
  };
  const auto res = minimize_projected(set, anchor, obj);
  ASSERT_TRUE(set.contains(res.x, 1e-6));

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> cand(n);
    for (std::size_t i = 0; i < n; ++i)
      cand[i] = rng.uniform(set.lo[i], set.hi[i]);
    cand = project_intersection(set, cand);
    if (!set.contains(cand, 1e-6)) continue;
    EXPECT_GE(obj(cand, nullptr), res.objective - 1e-6);
  }
}

TEST(LinearizedStepBuilder, GradientMatchesFiniteDifference) {
  const std::size_t k = 3;
  LinearizedStep step;
  step.grad_f = {0.5, -0.2, 0.7, 0.3};
  step.anchor = {0.4, 0.6, 0.1, 2.0};
  step.beta = 0.25;
  step.mu = {1.5, 0.7, 0.0, 0.2};
  // h with bilinear structure mimicking h^0/h^k.
  step.h = [k](const std::vector<double>& x, std::vector<double>& h) {
    h.resize(k + 1);
    const double rho = x[k];
    h[0] = 1.0 - 0.3 * (x[0] + x[1] + x[2]) * rho;
    for (std::size_t i = 0; i < k; ++i)
      h[i + 1] = 0.5 * x[i] * rho - rho + 1.0;
  };
  step.h_grad_mu = [k](const std::vector<double>& x,
                       const std::vector<double>& mu, std::vector<double>& g) {
    g.assign(k + 1, 0.0);
    const double rho = x[k];
    for (std::size_t i = 0; i < k; ++i) {
      g[i] = -mu[0] * 0.3 * rho + mu[i + 1] * 0.5 * rho;
      g[k] += mu[i + 1] * (0.5 * x[i] - 1.0);
    }
    g[k] += -mu[0] * 0.3 * (x[0] + x[1] + x[2]);
  };

  const auto obj = step.make_objective();
  std::vector<double> x = {0.3, 0.8, 0.2, 1.7};
  std::vector<double> grad;
  obj(x, &grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i <= k; ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (obj(xp, nullptr) - obj(xm, nullptr)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-5) << "dim " << i;
  }
}

TEST(ProxSolver, InfeasibleStartIsProjectedFirst) {
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) (*g) = {0.0, 0.0};
    return 0.0;
  };
  const auto res = minimize_projected(set, {5.0, -3.0}, obj);
  EXPECT_TRUE(set.contains(res.x, 1e-9));
}

// --- bit-identical multiplier replay ------------------------------------

// The projection as it was before the multiplier solve replayed its
// bisection from a monotone bracket: g evaluated at every bracketing and
// bisection step, both sweeps re-solved every multiplier. The oracle for
// the parity tests below.
namespace reference {

double solve_multiplier(const std::vector<double>& lo,
                        const std::vector<double>& hi, const Halfspace& h,
                        const std::vector<double>& base) {
  auto g = [&](double lambda) {
    double v = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i)
      v += h.a[i] * clamp(base[i] - lambda * h.a[i], lo[i], hi[i]);
    return v - h.b;
  };
  if (g(0.0) <= 0.0) return 0.0;
  double a_sq = 0.0;
  for (double ai : h.a) a_sq += ai * ai;
  if (a_sq == 0.0) return 0.0;  // degenerate: cannot fix by moving along a

  double lo_l = 0.0;
  double hi_l = 1.0 / a_sq;
  for (int it = 0; it < 200 && g(hi_l) > 0.0; ++it) {
    lo_l = hi_l;
    hi_l *= 2.0;
  }
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo_l + hi_l);
    (g(mid) > 0.0 ? lo_l : hi_l) = mid;
  }
  return 0.5 * (lo_l + hi_l);
}

void project_box_halfspace(const std::vector<double>& lo,
                           const std::vector<double>& hi, const Halfspace& h,
                           std::vector<double>& x) {
  const double lambda = reference::solve_multiplier(lo, hi, h, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = clamp(x[i] - lambda * h.a[i], lo[i], hi[i]);
}

std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         const ProjectionOptions& opts,
                                         bool* converged) {
  const std::size_t n = x.size();
  const std::size_t k = set.halfspaces.size();

  if (k == 0) {
    project_box(set.lo, set.hi, x);
    if (converged) *converged = true;
    return x;
  }
  if (k == 1) {
    reference::project_box_halfspace(set.lo, set.hi, set.halfspaces[0], x);
    if (converged) *converged = true;
    return x;
  }

  const std::vector<double> y = x;
  std::vector<double> lambda(k, 0.0);
  std::vector<double> base(n);
  bool ok = false;

  bool stationary = false;
  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double max_change = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        double v = y[i];
        for (std::size_t t = 0; t < k; ++t)
          if (t != s) v -= lambda[t] * set.halfspaces[t].a[i];
        base[i] = v;
      }
      const double new_lambda =
          reference::solve_multiplier(set.lo, set.hi, set.halfspaces[s], base);
      max_change = std::max(max_change, std::abs(new_lambda - lambda[s]));
      lambda[s] = new_lambda;
    }
    if (max_change < opts.tolerance) {
      stationary = true;
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double v = y[i];
    for (std::size_t t = 0; t < k; ++t) v -= lambda[t] * set.halfspaces[t].a[i];
    x[i] = clamp(v, set.lo[i], set.hi[i]);
  }
  ok = stationary || set.contains(x, 1e-7);
  if (converged) *converged = ok && set.contains(x, 1e-6);
  return x;
}

}  // namespace reference

struct Instance {
  FeasibleSet set;
  std::vector<double> x;
  ProjectionOptions opts;
  bool non_finite = false;
};

// A random box ∩ k-halfspace projection problem: bounds with lo ≠ 0 and
// lo == hi coordinates, normals of the budget (positive costs) and
// participation (−1) shapes as well as mixed signs, zeros and magnitudes
// across six orders, right-hand sides that cut the box or leave it empty,
// sometimes few sweeps, and now and then one non-finite operand.
Instance random_instance(Rng& rng) {
  Instance in;
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform() < 0.01 ? rng.uniform_int(200, 600) : rng.uniform_int(1, 64));
  const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 3));
  FeasibleSet& set = in.set;
  set.lo.resize(n);
  set.hi.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    set.lo[i] = rng.uniform() < 0.5 ? 0.0 : rng.uniform(-2.0, 1.0);
    set.hi[i] = set.lo[i] + (rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 3.0));
  }
  for (std::size_t s = 0; s < k; ++s) {
    Halfspace h;
    h.a.resize(n);
    const std::int64_t shape = rng.uniform_int(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      switch (shape) {
        case 0: h.a[i] = rng.uniform(0.1, 12.0); break;
        case 1: h.a[i] = -1.0; break;
        case 2: h.a[i] = rng.uniform() < 0.25 ? 0.0 : rng.normal(); break;
        default:
          h.a[i] = rng.uniform() < 0.2
                       ? 0.0
                       : (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                             std::exp(rng.uniform(-7.0, 7.0));
      }
    }
    if (rng.uniform() < 0.3) h.a[n - 1] = 0.0;  // the ρ coordinate
    double reach_lo = 0.0;  // min over the box of a·x
    double at_point = 0.0;  // a·x at a random point of the box
    for (std::size_t i = 0; i < n; ++i) {
      reach_lo += std::min(h.a[i] * set.lo[i], h.a[i] * set.hi[i]);
      at_point += h.a[i] * rng.uniform(set.lo[i], set.hi[i]);
    }
    h.b = rng.uniform() < 0.1 ? reach_lo - rng.uniform(0.1, 5.0)  // empty
                              : at_point + rng.normal();
    set.halfspaces.push_back(std::move(h));
  }
  in.x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    in.x[i] = rng.uniform(set.lo[i] - 2.0, set.hi[i] + 2.0);
  if (rng.uniform() < 0.2) {
    in.opts.max_sweeps = static_cast<std::size_t>(rng.uniform_int(1, 6));
    in.opts.tolerance = rng.uniform() < 0.5 ? 1e-6 : 0.0;
  }
  if (rng.uniform() < 0.05) {
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    const double v = bad[rng.uniform_int(0, 2)];
    in.non_finite = true;
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    Halfspace& h = set.halfspaces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))];
    switch (rng.uniform_int(0, 4)) {
      case 0: in.x[i] = v; break;
      case 1: h.a[i] = v; break;
      case 2: set.lo[i] = v; break;
      case 3: set.hi[i] = v; break;
      default: h.b = v;
    }
  }
  return in;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t counter(const std::string& name) {
  const auto counters = obs::MetricsRegistry::global().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

TEST(MultiplierReplay, RandomInstancesMatchReferenceBitForBit) {
  Rng rng(20221);
  ProjectionWorkspace ws;  // shared across instances: reuse must not leak
  std::size_t non_finite = 0;
  std::size_t unconverged = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const Instance in = random_instance(rng);
    bool ref_converged = false;
    const std::vector<double> want =
        reference::project_intersection(in.set, in.x, in.opts, &ref_converged);

    bool converged = !ref_converged;
    std::vector<double> got = in.x;
    project_intersection(in.set, got, ws, in.opts, &converged);
    ASSERT_TRUE(same_bytes(got, want)) << "trial " << trial;
    ASSERT_EQ(converged, ref_converged) << "trial " << trial;

    bool by_value = !ref_converged;
    ASSERT_TRUE(same_bytes(
        project_intersection(in.set, in.x, in.opts, &by_value), want))
        << "trial " << trial;
    ASSERT_EQ(by_value, ref_converged) << "trial " << trial;

    non_finite += in.non_finite ? 1 : 0;
    unconverged += ref_converged ? 0 : 1;
  }
  // The generator reaches the edge cases it claims to.
  EXPECT_GT(non_finite, 50u);
  EXPECT_GT(unconverged, 200u);
}

TEST(MultiplierReplay, NonFiniteInputEvaluatesEveryStep) {
  // y_0 = NaN clamps to hi_0 = 1 exactly as y_0 = 5 does, so both problems
  // have the same projection; only the finite one may skip evaluations.
  FeasibleSet set;
  set.lo.assign(4, 0.0);
  set.hi.assign(4, 1.0);
  set.halfspaces = {Halfspace{{1.0, 1.0, 1.0, 1.0}, 1.5}};
  auto evals_for = [&](double y0, std::vector<double>* out) {
    const std::uint64_t before = counter("solver.multiplier_evals");
    *out = project_intersection(set, {y0, 0.9, 0.9, 0.9});
    std::vector<double> want = {y0, 0.9, 0.9, 0.9};
    reference::project_box_halfspace(set.lo, set.hi, set.halfspaces[0], want);
    EXPECT_TRUE(same_bytes(*out, want)) << "y0 = " << y0;
    return counter("solver.multiplier_evals") - before;
  };
  std::vector<double> with_nan;
  std::vector<double> with_five;
  const std::uint64_t nan_evals =
      evals_for(std::numeric_limits<double>::quiet_NaN(), &with_nan);
  const std::uint64_t finite_evals = evals_for(5.0, &with_five);
  EXPECT_TRUE(same_bytes(with_nan, with_five));
  // g(0), three bracket doublings and a bisection run to its fixed point.
  EXPECT_GE(nan_evals, 50u);
  EXPECT_LE(finite_evals, 15u);
}

// 100 epochs of exact FedL selection over a lazy M = 10⁵ roster with about
// 1000 clients online, synthetic outcomes. The selection digest and the
// prox solver's iteration total were recorded with the evaluate-every-step
// projection; any change to a single multiplier shows up in one of them.
TEST(MultiplierReplay, SelectionLoopMatchesRecordedDigest) {
  constexpr std::size_t kClients = 100000;
  constexpr std::size_t kNmin = 8;
  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = kClients;
  spec.expected_participants = kNmin;
  spec.device.availability_prob = 1000.0 / static_cast<double>(kClients);
  spec.device.seed = 38;
  sim::EdgeEnvironment env(spec);
  core::FedLConfig fc;
  fc.learner.n_min = kNmin;
  fc.seed = 98;
  core::FedLStrategy strategy(kClients, fc);
  core::BudgetLedger ledger(1e15);

  const std::uint64_t iters_before = counter("solver.iterations");
  std::uint64_t digest = obs::kFnvOffsetBasis;
  for (std::size_t epoch = 0; epoch < 100; ++epoch) {
    const sim::EpochContext& ctx = env.advance_epoch();
    const core::Decision dec = strategy.decide(ctx, ledger);
    fl::EpochOutcome out;
    out.epoch = ctx.epoch;
    out.selected = dec.selected;
    out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
    double cost = 0.0;
    for (std::size_t i = 0; i < dec.selected.size(); ++i) {
      cost += ctx.find(dec.selected[i])->cost;
      out.client_eta.push_back(0.4 + 0.2 * static_cast<double>(i % 3));
      out.client_loss_reduction.push_back(0.02 +
                                          0.01 * static_cast<double>(i % 5));
      out.client_completed_iters.push_back(out.num_iterations);
    }
    out.cost = cost;
    out.train_loss_all = 2.303 / (1.0 + 0.05 * static_cast<double>(epoch));
    ledger.charge(cost);
    strategy.observe(ctx, dec, out);
    digest = obs::fnv1a(dec.selected.data(),
                        dec.selected.size() * sizeof(dec.selected[0]), digest);
  }
  EXPECT_EQ(obs::digest_hex(digest), "4415a70239ef4f28");
  EXPECT_EQ(counter("solver.iterations") - iters_before, 1304u);
}

}  // namespace
}  // namespace fedl::solver
