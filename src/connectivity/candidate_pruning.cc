#include "connectivity/candidate_pruning.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "connectivity/bounds.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"

namespace ctbus::connectivity {

namespace {

// cosh(1) - 1 and sinh(1): the entries of e^E for a single unweighted
// edge perturbation E = e_u e_v^T + e_v e_u^T.
const double kCosh1m1 = std::cosh(1.0) - 1.0;
const double kSinh1 = std::sinh(1.0);

}  // namespace

CandidateScreen CandidateScreen::Build(
    const linalg::SymmetricSparseMatrix& adjacency, double base_lambda,
    int lanczos_steps, std::uint64_t seed) {
  CandidateScreen screen;
  const int n = adjacency.dim();
  if (n == 0) return screen;
  screen.steps_ = std::max(1, lanczos_steps);
  screen.matrix_ = adjacency;
  screen.inv_trace_ =
      std::exp(-(base_lambda + std::log(static_cast<double>(n))));

  // M_uu for every vertex: one unit-vector quadrature each, kLanes
  // vertices per pass over the matrix.
  screen.muu_.resize(n);
  std::vector<std::vector<double>> units(linalg::kLanes,
                                         std::vector<double>(n, 0.0));
  for (int start = 0; start < n; start += linalg::kLanes) {
    const int lanes = std::min(linalg::kLanes, n - start);
    for (int b = 0; b < lanes; ++b) units[b][start + b] = 1.0;
    linalg::LanczosExpQuadratureLanes(screen.matrix_, units.data(), lanes,
                                      screen.steps_, &screen.muu_[start]);
    for (int b = 0; b < lanes; ++b) units[b][start + b] = 0.0;
  }

  // Uniform k = 1 cap from the (overflow-safe) Lemma 3/4 bounds; the
  // only randomized ingredient of the screen.
  linalg::Rng rng(seed);
  const std::vector<double> top =
      linalg::TopEigenvalues(adjacency, 1, std::min(n, 40), &rng);
  const double general = GeneralUpperBound(base_lambda, top, /*k=*/1, n);
  const double path = PathUpperBound(base_lambda, top, /*k=*/1, n);
  screen.uniform_cap_ = std::max(0.0, std::min(general, path) - base_lambda);
  return screen;
}

double CandidateScreen::EdgeBound(int u, int v) const {
  const int n = matrix_.dim();
  assert(u >= 0 && u < n && v >= 0 && v < n && u != v);
  std::vector<double> w(n, 0.0);
  w[u] = 1.0;
  w[v] = 1.0;
  // Polarization: (e_u + e_v)^T e^A (e_u + e_v) = M_uu + M_vv + 2 M_uv.
  const double quad_uv = linalg::LanczosExpQuadrature(matrix_, w, steps_);
  const double muv = 0.5 * (quad_uv - muu_[u] - muu_[v]);
  const double g = kCosh1m1 * (muu_[u] + muu_[v]) + 2.0 * kSinh1 * muv;
  const double x = inv_trace_ * g;
  // tr(e^A e^E) > 0 keeps 1 + x positive in exact arithmetic; guard the
  // log1p domain against quadrature round-off anyway.
  const double gt_bound = x > -1.0 ? std::log1p(x) : 0.0;
  return std::min(gt_bound, uniform_cap_);
}

}  // namespace ctbus::connectivity
