// Projected proximal-gradient solver for the modified descent step (8):
//
//   min_{Φ ∈ S}  ∇f_t(Φ_t)·(Φ − Φ_t) + μ^T h_t(Φ) + ‖Φ − Φ_t‖² / (2β)
//
// The paper solves this with the interior-point filter line-search method
// (IPOPT [26]); here we use projected gradient descent with Armijo
// backtracking (substitution 3 in DESIGN.md). The proximal term makes the
// objective 1/β-strongly convex, so PGD converges linearly to the unique
// minimizer; tests/solver_test.cpp verifies optimality against brute force.
#pragma once

#include <functional>
#include <vector>

#include "solver/projection.h"

namespace fedl::solver {

// Objective callback: returns the value at x and, when grad != nullptr,
// writes the gradient (same dimension as x).
using Objective =
    std::function<double(const std::vector<double>& x, std::vector<double>* grad)>;

struct ProxSolverOptions {
  std::size_t max_iterations = 200;
  double initial_step = 1.0;
  double backtrack_factor = 0.5;
  double armijo_c = 1e-4;
  std::size_t max_backtracks = 40;
  // Stop when ‖x_{k+1} − x_k‖² falls below this.
  double tolerance = 1e-12;
  ProjectionOptions projection;
};

struct ProxSolverResult {
  std::vector<double> x;
  double objective = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

// Minimizes `objective` over `set` starting from x0 (projected first if
// infeasible). The objective should already include the proximal term.
ProxSolverResult minimize_projected(const FeasibleSet& set,
                                    std::vector<double> x0,
                                    const Objective& objective,
                                    const ProxSolverOptions& opts = {});

// Convenience builder for step (8)'s objective:
//   value(Φ) = grad_f·(Φ − Φ_anchor) + μ·h(Φ) + ‖Φ − Φ_anchor‖²/(2β)
// where h is supplied as a callback returning the vector h(Φ) and its
// Jacobian-transpose product.
struct LinearizedStep {
  std::vector<double> grad_f;   // ∇f_t(Φ_t)
  std::vector<double> anchor;   // Φ_t
  double beta = 0.1;            // proximal step size β

  // h(Φ) and ∇(μ·h)(Φ), written into `out` (sized by the callee): callers
  // encode the constraint structure.
  std::function<void(const std::vector<double>& phi, std::vector<double>& out)>
      h;
  std::function<void(const std::vector<double>& phi,
                     const std::vector<double>& mu, std::vector<double>& out)>
      h_grad_mu;
  std::vector<double> mu;       // Lagrange multipliers (size of h output)

  // The returned Objective keeps its h / ∇(μ·h) buffers between calls, so
  // one copy must not be called from two threads at once.
  Objective make_objective() const;
};

}  // namespace fedl::solver
