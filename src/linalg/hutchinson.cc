#include "linalg/hutchinson.h"

#include <algorithm>
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
  const int count = static_cast<int>(probes.size());
  double acc = 0.0;
  for (int start = 0; start < count; start += kLanes) {
    const int lanes = std::min(kLanes, count - start);
    double quad[kLanes] = {};
    LanczosExpQuadratureLanes(a, &probes[start], lanes, steps, quad);
    for (int b = 0; b < lanes; ++b) acc += quad[b];
  }
  return acc / static_cast<double>(probes.size());
}

}  // namespace ctbus::linalg
