#include "linalg/lanczos.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/dense_eigen.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {

namespace {

// beta below this is treated as an invariant-subspace breakdown.
constexpr double kBreakdownTol = 1e-12;

}  // namespace

LanczosResult LanczosTridiagonalize(const MatVec& a,
                                    const std::vector<double>& v0,
                                    const LanczosOptions& options) {
  const int n = a.dim();
  assert(static_cast<int>(v0.size()) == n);
  assert(options.steps >= 1);
  const bool keep_basis = options.keep_basis || options.full_reorthogonalize;

  LanczosResult result;
  std::vector<double> v = v0;
  if (Normalize(&v) == 0.0) {
    // Zero start vector: T is the 1x1 zero matrix.
    result.alpha.push_back(0.0);
    result.broke_down = true;
    if (keep_basis) result.basis.push_back(v);
    return result;
  }

  std::vector<double> v_prev(n, 0.0);
  std::vector<double> w(n, 0.0);
  double beta_prev = 0.0;

  for (int j = 0; j < options.steps; ++j) {
    if (keep_basis) result.basis.push_back(v);
    a.Apply(v, &w);
    const double alpha = Dot(w, v);
    result.alpha.push_back(alpha);
    // w <- w - alpha v - beta_prev v_prev
    Axpy(-alpha, v, &w);
    if (j > 0) Axpy(-beta_prev, v_prev, &w);
    if (options.full_reorthogonalize) {
      // Two passes of classical Gram-Schmidt against the stored basis keep
      // the basis orthogonal to machine precision.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& q : result.basis) {
          const double coef = Dot(w, q);
          Axpy(-coef, q, &w);
        }
      }
    }
    const double beta = Norm2(w);
    if (j + 1 == options.steps) break;
    if (beta < kBreakdownTol) {
      result.broke_down = true;
      break;
    }
    result.beta.push_back(beta);
    v_prev = v;
    v = w;
    Scale(1.0 / beta, &v);
    beta_prev = beta;
  }
  return result;
}

std::vector<double> LanczosExpApply(const MatVec& a,
                                    const std::vector<double>& v, int steps) {
  const int n = a.dim();
  const double v_norm = Norm2(v);
  std::vector<double> s(n, 0.0);
  if (v_norm == 0.0) return s;

  LanczosOptions options;
  options.steps = steps;
  options.keep_basis = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v, options);
  const int t = static_cast<int>(lanczos.alpha.size());

  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  // exp(T) e1 = Z exp(diag(theta)) Z^T e1; coefficient of basis vector i is
  // sum_j exp(theta_j) * Z[0][j] * Z[i][j].
  std::vector<double> coeffs(t, 0.0);
  for (int j = 0; j < t; ++j) {
    const double weight =
        std::exp(tri.eigenvalues[j]) * tri.eigenvectors.At(0, j);
    for (int i = 0; i < t; ++i) {
      coeffs[i] += weight * tri.eigenvectors.At(i, j);
    }
  }
  for (int i = 0; i < t; ++i) {
    Axpy(v_norm * coeffs[i], lanczos.basis[i], &s);
  }
  return s;
}

double LanczosExpQuadrature(const MatVec& a, const std::vector<double>& v,
                            int steps) {
  const double v_norm = Norm2(v);
  if (v_norm == 0.0) return 0.0;

  LanczosOptions options;
  options.steps = steps;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v, options);
  const int t = static_cast<int>(lanczos.alpha.size());

  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  double quad = 0.0;
  for (int j = 0; j < t; ++j) {
    const double z0 = tri.eigenvectors.At(0, j);
    quad += std::exp(tri.eigenvalues[j]) * z0 * z0;
  }
  return v_norm * v_norm * quad;
}

std::vector<double> TopEigenvalues(const MatVec& a, int k, int iters,
                                   Rng* rng) {
  const int n = a.dim();
  assert(k >= 0);
  if (k == 0 || n == 0) return {};
  k = std::min(k, n);
  iters = std::min(std::max(iters, k), n);

  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = iters;
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  // Ritz values come out ascending; return the top k descending. If the
  // iteration broke down early we may have fewer than k Ritz values — pad
  // with the smallest (repeated eigenvalues on an invariant subspace).
  std::vector<double> top;
  const int available = static_cast<int>(tri.eigenvalues.size());
  for (int i = 0; i < k; ++i) {
    const int idx = available - 1 - i;
    top.push_back(tri.eigenvalues[std::max(idx, 0)]);
  }
  return top;
}

TopEigenpairsResult TopEigenpairs(const MatVec& a, int k, int iters,
                                  Rng* rng) {
  const int n = a.dim();
  TopEigenpairsResult result;
  assert(k >= 0);
  if (k == 0 || n == 0) return result;
  k = std::min(k, n);
  iters = std::min(std::max(iters, k), n);

  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = iters;
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/true);
  const int t = static_cast<int>(tri.eigenvalues.size());
  const int available = std::min(k, t);
  for (int i = 0; i < available; ++i) {
    const int idx = t - 1 - i;  // ascending -> take from the top
    result.eigenvalues.push_back(tri.eigenvalues[idx]);
    // Ritz vector: z = V * y.
    std::vector<double> ritz(n, 0.0);
    for (int row = 0; row < t; ++row) {
      Axpy(tri.eigenvectors.At(row, idx), lanczos.basis[row], &ritz);
    }
    Normalize(&ritz);
    result.eigenvectors.push_back(std::move(ritz));
  }
  return result;
}

double SpectralNormEstimate(const MatVec& a, int iters, Rng* rng) {
  const int n = a.dim();
  if (n == 0) return 0.0;
  std::vector<double> v0(n);
  FillGaussian(rng, &v0);
  LanczosOptions options;
  options.steps = std::min(iters, n);
  options.full_reorthogonalize = true;
  const LanczosResult lanczos = LanczosTridiagonalize(a, v0, options);
  const SymmetricEigenResult tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  if (tri.eigenvalues.empty()) return 0.0;
  return std::max(std::abs(tri.eigenvalues.front()),
                  std::abs(tri.eigenvalues.back()));
}

}  // namespace ctbus::linalg
