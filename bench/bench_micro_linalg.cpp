// Micro-benchmarks (google-benchmark) for the linear-algebra substrate:
// dense eigensolve vs Lanczos trace estimation scaling, Hutchinson probe
// count, and sparse matvec throughput. These quantify the Section 5 claim
// that estimation beats eigendecomposition by orders of magnitude.
#include <benchmark/benchmark.h>

#include "connectivity/natural_connectivity.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/hutchinson.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace {

ctbus::linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                                 std::uint64_t seed) {
  ctbus::linalg::Rng rng(seed);
  ctbus::linalg::SymmetricSparseMatrix a(n);
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u != v) a.Set(u, v, 1.0);
  }
  return a;
}

void BM_DenseEigenvalues(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 3.0, 1);
  const auto dense = ctbus::linalg::DenseMatrix::FromSparse(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctbus::linalg::SymmetricEigenvalues(dense));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DenseEigenvalues)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_LanczosTraceEstimate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 3.0, 1);
  ctbus::connectivity::EstimatorOptions options;  // s=50, t=10
  const ctbus::connectivity::ConnectivityEstimator estimator(n, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(a));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LanczosTraceEstimate)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HutchinsonProbeSweep(benchmark::State& state) {
  const int probes = static_cast<int>(state.range(0));
  const auto a = RandomGraph(512, 3.0, 2);
  ctbus::linalg::Rng rng(3);
  const auto probe_vectors =
      ctbus::linalg::MakeGaussianProbes(512, probes, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctbus::linalg::EstimateTraceExpWithProbes(a, probe_vectors, 10));
  }
}
BENCHMARK(BM_HutchinsonProbeSweep)->Arg(10)->Arg(25)->Arg(50)->Arg(100);

void BM_LanczosStepsSweep(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  const auto a = RandomGraph(512, 3.0, 2);
  ctbus::linalg::Rng rng(4);
  std::vector<double> v(512);
  ctbus::linalg::FillGaussian(&rng, &v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctbus::linalg::LanczosExpQuadrature(a, v, steps));
  }
}
BENCHMARK(BM_LanczosStepsSweep)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_SparseMatVec(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 4.0, 5);
  ctbus::linalg::Rng rng(6);
  std::vector<double> x(n), y(n);
  ctbus::linalg::FillGaussian(&rng, &x);
  for (auto _ : state) {
    a.Apply(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.num_entries() * 2);
}
BENCHMARK(BM_SparseMatVec)->Arg(1024)->Arg(8192)->Arg(65536);

// One lane-interleaved product over kLanes vectors: compare its time with
// kLanes x BM_SparseMatVec at the same size.
void BM_SparseApplyBlock(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomGraph(n, 4.0, 5);
  ctbus::linalg::Rng rng(6);
  std::vector<double> x(static_cast<std::size_t>(n) * ctbus::linalg::kLanes);
  std::vector<double> y(x.size());
  ctbus::linalg::FillGaussian(&rng, &x);
  for (auto _ : state) {
    a.ApplyBlock(x.data(), ctbus::linalg::kLanes, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.num_entries() * 2 *
                          ctbus::linalg::kLanes);
}
BENCHMARK(BM_SparseApplyBlock)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_EdgeAddRemove(benchmark::State& state) {
  auto a = RandomGraph(4096, 4.0, 7);
  ctbus::linalg::Rng rng(8);
  for (auto _ : state) {
    const int u = static_cast<int>(rng.NextIndex(4096));
    const int v = static_cast<int>(rng.NextIndex(4096));
    if (u == v || a.Contains(u, v)) continue;
    a.Set(u, v, 1.0);
    a.Remove(u, v);
  }
}
BENCHMARK(BM_EdgeAddRemove);

}  // namespace

BENCHMARK_MAIN();
