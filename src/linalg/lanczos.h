// Lanczos method for symmetric operators: tridiagonalization, Gaussian
// quadrature for v^T exp(A) v, and top-k eigenvalue extraction. Together with Hutchinson's estimator (hutchinson.h) this is the
// fast connectivity machinery of Section 5.1 of the CT-Bus paper.
#ifndef CTBUS_LINALG_LANCZOS_H_
#define CTBUS_LINALG_LANCZOS_H_

#include <vector>

#include "linalg/matvec.h"
#include "linalg/rng.h"

namespace ctbus::linalg {

/// Output of a Lanczos run: T = tridiag(alpha, beta) with V^T A V = T.
struct LanczosResult {
  /// Diagonal of T; size == steps actually performed (<= requested).
  std::vector<double> alpha;
  /// Subdiagonal of T; size == steps - 1.
  std::vector<double> beta;
  /// Orthonormal Lanczos basis vectors v_0 .. v_{steps-1}; only populated
  /// with LanczosOptions::full_reorthogonalize (quadrature never needs it).
  std::vector<std::vector<double>> basis;
  /// True if the iteration hit an invariant subspace (beta underflow), in
  /// which case the result is exact on that subspace.
  bool broke_down = false;
};

/// Options for the Lanczos iteration.
struct LanczosOptions {
  /// Number of iterations t. The paper's default for connectivity estimation.
  int steps = 10;
  /// Re-orthogonalize each new vector against the whole basis, which is
  /// kept in LanczosResult::basis (memory O(n * steps)). Required for
  /// accurate extreme eigenvalues.
  bool full_reorthogonalize = false;
};

/// Runs Lanczos from starting vector v0 (need not be normalized).
LanczosResult LanczosTridiagonalize(const MatVec& a,
                                    const std::vector<double>& v0,
                                    const LanczosOptions& options);

/// Approximates the quadratic form v^T exp(A) v by Lanczos quadrature:
///   ||v||^2 * (e1^T exp(T) e1),
/// for `lanes` probes at once: out[b] is the quadrature of probes[b],
/// b < lanes, with 1 <= lanes <= kLanes. The three-term recurrence runs
/// on lane-interleaved vectors through MatVec::ApplyBlock, so one pass
/// over the matrix serves every lane, and each lane's arithmetic is the
/// single-probe recurrence in the same order: results do not depend on
/// which probes share a block. A zero probe yields 0.0; a lane that hits
/// an invariant subspace stops extending its T while the others go on.
/// Never materializes the basis: O(steps * nnz) time, O(n * kLanes)
/// memory, all of it local to the call.
void LanczosExpQuadratureLanes(const MatVec& a,
                               const std::vector<double>* probes, int lanes,
                               int steps, double* out);

/// LanczosExpQuadratureLanes for the single probe `v`.
double LanczosExpQuadrature(const MatVec& a, const std::vector<double>& v,
                            int steps);

/// Largest `k` eigenvalues of `a` (descending), computed by Lanczos with full
/// reorthogonalization using `iters >= k` iterations from a random start.
/// Accurate for the well-separated extreme eigenvalues the CT-Bus bounds
/// need (Lemma 3 uses the top 2k, Lemma 4 the top floor((k+1)/2)).
std::vector<double> TopEigenvalues(const MatVec& a, int k, int iters,
                                   Rng* rng);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_LANCZOS_H_
