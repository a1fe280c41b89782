#include "linalg/hutchinson.h"

#include <stdexcept>

#include "linalg/lanczos.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {

std::vector<std::vector<double>> MakeGaussianProbes(int dim, int probes,
                                                    Rng* rng) {
  if (probes < 1) {
    throw std::invalid_argument("MakeGaussianProbes: probes must be >= 1");
  }
  std::vector<std::vector<double>> out(probes, std::vector<double>(dim));
  for (auto& v : out) FillGaussian(rng, &v);
  return out;
}

double EstimateTraceExp(const MatVec& a, int probes, int steps, Rng* rng) {
  const auto probe_vectors = MakeGaussianProbes(a.dim(), probes, rng);
  return EstimateTraceExpWithProbes(a, probe_vectors, steps);
}

double EstimateTraceExpWithProbes(
    const MatVec& a, const std::vector<std::vector<double>>& probes,
    int steps) {
  if (probes.empty()) {
    throw std::invalid_argument(
        "EstimateTraceExpWithProbes: empty probe set (0/0 average)");
  }
  double acc = 0.0;
  for (const auto& v : probes) {
    acc += LanczosExpQuadrature(a, v, steps);
  }
  return acc / static_cast<double>(probes.size());
}

}  // namespace ctbus::linalg
