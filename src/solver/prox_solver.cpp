#include "solver/prox_solver.h"

#include <cmath>

#include "common/error.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl::solver {
namespace {

// Solver telemetry: call volume and total inner iterations; the per-call
// iteration count lands in a histogram so convergence behaviour is visible
// without logging every solve.
const obs::Counter& solver_calls() {
  static const obs::Counter c("solver.calls");
  return c;
}
const obs::Counter& solver_iterations() {
  static const obs::Counter c("solver.iterations");
  return c;
}
const obs::Histogram& solver_iters_hist() {
  static const obs::Histogram h("solver.iters_per_call",
                                {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

struct SolveRecord {
  const ProxSolverResult& res;
  explicit SolveRecord(const ProxSolverResult& r) : res(r) {}
  ~SolveRecord() {
    solver_iterations().add(res.iterations);
    solver_iters_hist().observe(static_cast<double>(res.iterations));
  }
};

}  // namespace

ProxSolverResult minimize_projected(const FeasibleSet& set,
                                    std::vector<double> x0,
                                    const Objective& objective,
                                    const ProxSolverOptions& opts) {
  FEDL_PROFILE_SCOPE("solver.minimize");
  solver_calls().add();
  FEDL_CHECK_EQ(x0.size(), set.dim());
  ProxSolverResult res;
  SolveRecord record(res);  // flushes iteration telemetry on every exit path
  // Buffers reused by every projection and backtracking step.
  ProjectionWorkspace ws;
  std::vector<double> candidate;
  res.x = std::move(x0);
  project_intersection(set, res.x, ws, opts.projection);

  std::vector<double> grad(res.x.size());
  double value = objective(res.x, &grad);
  double step = opts.initial_step;

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;

    // Backtracking projected-gradient step: candidate = P(x − step·∇),
    // accept when the Armijo condition holds along the *projected* direction.
    bool accepted = false;
    double cand_value = 0.0;
    double local_step = step;
    for (std::size_t bt = 0; bt < opts.max_backtracks; ++bt) {
      candidate = res.x;
      for (std::size_t i = 0; i < candidate.size(); ++i)
        candidate[i] -= local_step * grad[i];
      project_intersection(set, candidate, ws, opts.projection);

      // Projected direction d = candidate − x; Armijo on g(x)·d.
      double gd = 0.0;
      double d_sq = 0.0;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        const double d = candidate[i] - res.x[i];
        gd += grad[i] * d;
        d_sq += d * d;
      }
      if (d_sq < opts.tolerance) {
        // The projected gradient step no longer moves: stationary point.
        res.converged = true;
        res.objective = value;
        return res;
      }
      cand_value = objective(candidate, nullptr);
      if (cand_value <= value + opts.armijo_c * gd) {
        accepted = true;
        break;
      }
      local_step *= opts.backtrack_factor;
    }
    if (!accepted) {
      // Could not decrease even with a tiny step — treat current point as
      // the (numerical) minimizer.
      res.converged = true;
      res.objective = value;
      return res;
    }

    double move_sq = 0.0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      const double d = candidate[i] - res.x[i];
      move_sq += d * d;
    }
    res.x.swap(candidate);
    value = objective(res.x, &grad);
    // Mild step recovery: successful steps let the step size grow back.
    step = std::min(opts.initial_step, local_step * 2.0);
    if (move_sq < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  res.objective = value;
  return res;
}

Objective LinearizedStep::make_objective() const {
  FEDL_CHECK_EQ(grad_f.size(), anchor.size());
  FEDL_CHECK_GT(beta, 0.0);
  FEDL_CHECK(h != nullptr);
  FEDL_CHECK(h_grad_mu != nullptr);
  // Copy members so the Objective outlives this builder.
  auto grad_f_c = grad_f;
  auto anchor_c = anchor;
  auto h_c = h;
  auto hg_c = h_grad_mu;
  auto mu_c = mu;
  const double beta_c = beta;

  std::vector<double> hx;
  std::vector<double> hg;

  return [grad_f_c, anchor_c, h_c, hg_c, mu_c, beta_c, hx, hg](
             const std::vector<double>& x, std::vector<double>* grad) mutable {
    FEDL_CHECK_EQ(x.size(), anchor_c.size());
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double dx = x[i] - anchor_c[i];
      value += grad_f_c[i] * dx + dx * dx / (2.0 * beta_c);
    }
    h_c(x, hx);
    FEDL_CHECK_EQ(hx.size(), mu_c.size());
    value += dot(mu_c, hx);

    if (grad) {
      grad->assign(x.size(), 0.0);
      hg_c(x, mu_c, hg);
      FEDL_CHECK_EQ(hg.size(), x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        (*grad)[i] = grad_f_c[i] + (x[i] - anchor_c[i]) / beta_c + hg[i];
      }
    }
    return value;
  };
}

}  // namespace fedl::solver
