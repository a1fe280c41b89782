// Hutchinson's stochastic trace estimator specialized to tr(exp(A)).
//
// tr(exp(A)) = E[v^T exp(A) v] for v with i.i.d. unit-variance entries
// (Equation 6/7 of the paper). Each quadratic form is evaluated with
// `steps`-iteration Lanczos quadrature, so one estimate costs
// O(probes * steps * nnz(A)) arithmetic, in ceil(probes / kLanes) lane
// blocks of `steps` passes over A each (LanczosExpQuadratureLanes). On a
// 387-vertex graph with 425 edges (Intel Xeon, -O2, baseline x86-64), a
// 4-lane 10-step block takes ~65-75 us: about a quarter in the ten block
// products, a third in the four 10x10 tridiagonal QL solves behind the
// Gauss weights, and the rest in the vector updates. A 50x10 estimate
// runs ~0.8-1.0 ms there, against ~2.0 ms one probe at a time.
//
// The `WithProbes` variant evaluates several matrices with the *same* probe
// vectors (common random numbers). CT-Bus relies on this to estimate tiny
// connectivity increments Delta(e) = lambda(G+e) - lambda(G): with shared
// probes the stochastic error largely cancels in the difference.
#ifndef CTBUS_LINALG_HUTCHINSON_H_
#define CTBUS_LINALG_HUTCHINSON_H_

#include <vector>

#include "linalg/matvec.h"
#include "linalg/rng.h"

namespace ctbus::linalg {

/// Draws `probes` Gaussian probe vectors of dimension `dim`.
/// Throws std::invalid_argument if probes < 1.
std::vector<std::vector<double>> MakeGaussianProbes(int dim, int probes,
                                                    Rng* rng);

/// Estimates tr(exp(A)) with `probes` fresh Gaussian probes and
/// `steps`-iteration Lanczos quadrature per probe.
/// Throws std::invalid_argument if probes < 1 (an empty average would be a
/// silent 0/0 NaN that poisons every cached Precompute entry built from it).
double EstimateTraceExp(const MatVec& a, int probes, int steps, Rng* rng);

/// Same estimator but with caller-supplied probes (common random numbers).
/// Throws std::invalid_argument if `probes` is empty (same 0/0 hazard).
double EstimateTraceExpWithProbes(
    const MatVec& a, const std::vector<std::vector<double>>& probes,
    int steps);

}  // namespace ctbus::linalg

#endif  // CTBUS_LINALG_HUTCHINSON_H_
