// Per-edge connectivity increments Delta(e) = lambda(G_r + e) - lambda(G_r)
// (Definition 7). Pre-computing Delta(e) for every candidate edge is the
// heart of ETA-Pre (Section 6): the route search then treats connectivity as
// a linear function of its edges.
//
// Two ways to get one:
//   * EdgeTraceIncrement, the precompute's kernel: a deterministic bilinear
//     Gauss quadrature of the trace increment tr e^(A+E) - tr e^A on the
//     candidate's hop ball (Golub & Meurant, "Matrices, Moments and
//     Quadrature", 2010). Delta(e) = log1p(dtr / tr e^A) then needs one
//     base trace per network, not one estimate per candidate. Against the
//     dense oracle its Spearman rank correlation is 1.000 at chicago
//     scales 0.5 and 1.0, with mean absolute error ~5e-6
//     (bench/bench_increment_accuracy.cpp; docs/PRECOMPUTE.md).
//   * EdgeIncrement / EdgeSetIncrement: two Hutchinson estimates through
//     one shared ConnectivityEstimator (common random numbers),
//     differenced, with the new edges staged in a read-only view of the
//     adjacency. Online ETA's estimate and the stochastic reference for
//     the figure benches; its noise is of the order of the increments
//     themselves (Spearman 0.08-0.18 at 8 x 8).
#ifndef CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_
#define CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_

#include <utility>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::connectivity {

/// Gauss-Legendre nodes in s for the Duhamel integral below (weights 1/2
/// each). Going from 2 to 3 nodes moves the trace increment by at most
/// 1.9e-4 relative (about 100 evenly spaced candidates each at chicago
/// scales 0.5 and 1.0).
inline constexpr int kEdgeTraceNodes = 2;
inline constexpr double kEdgeTraceNode[kEdgeTraceNodes] = {
    0.5 - 0.28867513459481288225, 0.5 + 0.28867513459481288225};
/// Lanczos steps per quadratic form. Going from 6 to 8 moves the trace
/// increment by at most 3.1e-7 relative on the same samples, for a third
/// more work and a wider ball; at 6 a candidate costs about 20 us.
inline constexpr int kEdgeTraceLanczosSteps = 6;
/// Hop radius of the ball a candidate's quadrature runs on: with t steps
/// from a probe supported on {u, v}, every Lanczos vector stays inside the
/// (t - 1)-hop ball of {u, v}.
inline constexpr int kEdgeTraceBallHops = kEdgeTraceLanczosSteps - 1;

/// The kEdgeTraceNodes x 2 polarization forms behind EdgeTraceIncrement:
/// out[2 i] = x+^T e^(A + s_i E) x+ and out[2 i + 1] = x-^T e^(A + s_i E) x-,
/// with x+- = e_u +- e_v, E = e_u e_v^T + e_v e_u^T and s_i =
/// kEdgeTraceNode[i]. Each is a kEdgeTraceLanczosSteps-step Lanczos
/// quadrature; the four run as the lanes of one
/// linalg::LanczosExpQuadratureLanes block over the CSR of the
/// kEdgeTraceBallHops-hop ball of {u, v} (rows in ascending global id,
/// each row's entries in `a`'s row order), with the candidate edge as a
/// lane-dependent tail entry s_i on rows u and v. That is exactly where
/// SymmetricSparseMatrix::Set appends it, so lane b is bit-identical to
/// LanczosExpQuadrature over the full adjacency with Set(u, v, s_i).
/// Requires u != v and no stored (u, v) entry.
void EdgeTraceQuadratures(const linalg::SymmetricSparseMatrix& a, int u,
                          int v, double out[2 * kEdgeTraceNodes]);

/// tr e^(A+E) - tr e^A for the prospective edge {u, v}, by Duhamel's
/// formula 2 * integral_0^1 [e^(A + s E)]_uv ds, with the integrand
/// polarized as (x+^T f x+ - x-^T f x-) / 4 and integrated by
/// kEdgeTraceNodes-node Gauss-Legendre:
///   sum_i 1/4 (out[2 i] - out[2 i + 1])   (EdgeTraceQuadratures).
/// 0 for a pair already stored in `a`. Deterministic, reads `a` only, and
/// costs O(ball nnz) — independent of the network's size — so any number
/// of threads may call it on one shared matrix.
double EdgeTraceIncrement(const linalg::SymmetricSparseMatrix& a, int u,
                          int v);

/// Delta(e) from a trace increment: max(0, log1p(trace_increment /
/// base_trace)), i.e. lambda(A + E) - lambda(A) with tr e^A = base_trace.
double IncrementFromTrace(double trace_increment, double base_trace);

/// A Delta(e) measured against base trace `from_trace`, re-expressed
/// against `to_trace` — the same trace increment, a new denominator:
/// max(0, log1p(expm1(increment) * from_trace / to_trace)). The warm start
/// applies it to every carried value.
double RebaseIncrement(double increment, double from_trace, double to_trace);

/// Increment of a whole edge set added at once, lambda(G + edges) -
/// lambda(G), as the difference of two Hutchinson estimates through one
/// shared estimator (common random numbers); `base_lambda` must be the
/// estimator's own estimate of lambda(base). The pairs are staged in order
/// as unit-weight entries at the tails of their rows in a read-only view of
/// `base` — where SymmetricSparseMatrix::Set would append them — so the
/// estimate has exactly the bits of Set-then-estimate. A pair already
/// stored in `base`, or already staged in either orientation, is skipped;
/// with nothing staged the result is 0 without an estimate. `base` is never
/// written, so any number of threads may call this on one matrix. Throws
/// std::invalid_argument for a diagonal pair and std::out_of_range for an
/// index outside [0, base->dim()), as Set does.
///
/// Online ETA's per-candidate estimate (Algorithm 1, lines 10 and 13), and
/// Figure 3's (non-)submodularity probe against the sum of the Delta(e).
double EdgeSetIncrement(const linalg::SymmetricSparseMatrix* base,
                        double base_lambda,
                        const ConnectivityEstimator& estimator,
                        const std::vector<std::pair<int, int>>& stop_pairs);

/// Delta(e) for one prospective edge {u, v}: EdgeSetIncrement of {{u, v}}.
double EdgeIncrement(const linalg::SymmetricSparseMatrix* base,
                     double base_lambda, const ConnectivityEstimator& estimator,
                     int u, int v);

}  // namespace ctbus::connectivity

#endif  // CTBUS_CONNECTIVITY_EDGE_INCREMENT_H_
