#include "linalg/lanczos.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "linalg/dense_eigen.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {

namespace {

// beta below this is treated as an invariant-subspace breakdown.
constexpr double kBreakdownTol = 1e-12;

// Calls f(b) for every lane b < L with b a compile-time constant, so the
// per-lane accumulator arrays below are kept in registers rather than
// round-tripping through the stack on every element.
template <typename F, std::size_t... B>
inline void ForEachLaneImpl(F&& f, std::index_sequence<B...>) {
  (f(std::integral_constant<std::size_t, B>()), ...);
}

template <int L, typename F>
inline void ForEachLane(F&& f) {
  ForEachLaneImpl(f, std::make_index_sequence<L>());
}

// Lanczos quadrature for `lanes` <= L probes at once. The vectors are
// stored lane-interleaved (element i of lane b at [i * L + b]), so every
// pass below runs L independent accumulator chains, each in the element
// order of the single-vector kernels in vector_ops (Dot, Axpy, Norm2,
// Scale) — lane b reproduces the one-probe recurrence bit for bit.
// Lanes past `lanes` stay zero and inactive.
template <int L>
void QuadratureLanes(const MatVec& a, const std::vector<double>* probes,
                     int lanes, int steps, double* out) {
  const int n = a.dim();
  const std::size_t size = static_cast<std::size_t>(n) * L;
  std::vector<double> v(size, 0.0);
  std::vector<double> v_prev(size, 0.0);
  std::vector<double> w(size, 0.0);
  std::vector<double> alpha[L];
  std::vector<double> beta[L];
  double probe_norm[L] = {};
  bool active[L] = {};

  for (int b = 0; b < lanes; ++b) {
    assert(static_cast<int>(probes[b].size()) == n);
    for (int i = 0; i < n; ++i) {
      v[static_cast<std::size_t>(i) * L + b] = probes[b][i];
    }
  }
  double sum_sq[L] = {};
  for (std::size_t r = 0; r < size; r += L) {
    const double* vi = &v[r];
    ForEachLane<L>([&](auto b) { sum_sq[b] += vi[b] * vi[b]; });
  }
  double scale[L] = {};
  for (int b = 0; b < lanes; ++b) {
    probe_norm[b] = std::sqrt(sum_sq[b]);
    // A zero probe contributes exactly 0 and never enters the recurrence.
    active[b] = probe_norm[b] != 0.0;
    if (active[b]) {
      scale[b] = 1.0 / probe_norm[b];
      alpha[b].reserve(steps);
      beta[b].reserve(steps);
    }
  }
  for (std::size_t r = 0; r < size; r += L) {
    double* vi = &v[r];
    ForEachLane<L>([&](auto b) { vi[b] *= scale[b]; });
  }

  double beta_prev[L] = {};
  for (int j = 0; j < steps; ++j) {
    a.ApplyBlock(v.data(), L, w.data());
    double dot[L] = {};
    for (std::size_t r = 0; r < size; r += L) {
      const double* wi = &w[r];
      const double* vi = &v[r];
      ForEachLane<L>([&](auto b) { dot[b] += wi[b] * vi[b]; });
    }
    for (int b = 0; b < L; ++b) {
      if (active[b]) alpha[b].push_back(dot[b]);
    }
    if (j + 1 == steps) break;

    // w <- w - alpha v - beta_prev v_prev, and ||w||^2, in one pass. At
    // j = 0 v_prev and beta_prev are zero and adding -0.0 is exact, so the
    // first step needs no special case.
    double neg_alpha[L] = {};
    double neg_beta[L] = {};
    for (int b = 0; b < L; ++b) {
      neg_alpha[b] = -dot[b];
      neg_beta[b] = -beta_prev[b];
      sum_sq[b] = 0.0;
    }
    for (std::size_t r = 0; r < size; r += L) {
      double* wi = &w[r];
      const double* vi = &v[r];
      const double* pi = &v_prev[r];
      ForEachLane<L>([&](auto b) {
        double x = wi[b] + neg_alpha[b] * vi[b];
        x = x + neg_beta[b] * pi[b];
        wi[b] = x;
        sum_sq[b] += x * x;
      });
    }

    bool any_active = false;
    for (int b = 0; b < L; ++b) {
      const double beta_j = std::sqrt(sum_sq[b]);
      // A lane that breaks down keeps its T as is; its vectors are zeroed
      // so the remaining lanes carry on undisturbed.
      if (active[b] && beta_j < kBreakdownTol) active[b] = false;
      scale[b] = 0.0;
      if (!active[b]) continue;
      beta[b].push_back(beta_j);
      scale[b] = 1.0 / beta_j;
      beta_prev[b] = beta_j;
      any_active = true;
    }
    if (!any_active) break;
    // Rotate the buffers: v_prev <- v, v <- w / beta; the old v_prev
    // becomes the next step's product target.
    v_prev.swap(v);
    v.swap(w);
    for (std::size_t r = 0; r < size; r += L) {
      double* vi = &v[r];
      ForEachLane<L>([&](auto b) { vi[b] *= scale[b]; });
    }
  }

  for (int b = 0; b < lanes; ++b) {
    out[b] = 0.0;
    if (probe_norm[b] == 0.0) continue;
    const SymmetricEigenResult tri =
        TridiagonalEigenFirstRow(alpha[b], beta[b]);
    double quad = 0.0;
    for (std::size_t k = 0; k < tri.eigenvalues.size(); ++k) {
      const double z0 = tri.eigenvectors.At(0, static_cast<int>(k));
      quad += std::exp(tri.eigenvalues[k]) * z0 * z0;
    }
    out[b] = probe_norm[b] * probe_norm[b] * quad;
  }
}

}  // namespace

LanczosResult LanczosTridiagonalize(const MatVec& a,
                                    const std::vector<double>& v0,
                                    const LanczosOptions& options) {
  const int n = a.dim();
  assert(static_cast<int>(v0.size()) == n);
  assert(options.steps >= 1);
  const bool keep_basis = options.full_reorthogonalize;

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

void LanczosExpQuadratureLanes(const MatVec& a,
                               const std::vector<double>* probes, int lanes,
                               int steps, double* out) {
  assert(lanes >= 1 && lanes <= kLanes);
  assert(steps >= 1);
  if (lanes == 1) {
    QuadratureLanes<1>(a, probes, lanes, steps, out);
  } else {
    QuadratureLanes<kLanes>(a, probes, lanes, steps, out);
  }
}

double LanczosExpQuadrature(const MatVec& a, const std::vector<double>& v,
                            int steps) {
  double quad = 0.0;
  LanczosExpQuadratureLanes(a, &v, 1, steps, &quad);
  return quad;
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

}  // namespace ctbus::linalg
