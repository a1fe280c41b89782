#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {
namespace {

// Random sparse graph adjacency with unit weights and ~avg_degree per vertex.
SymmetricSparseMatrix RandomGraph(int n, double avg_degree, Rng* rng) {
  SymmetricSparseMatrix a(n);
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng->NextIndex(n));
    const int v = static_cast<int>(rng->NextIndex(n));
    if (u != v) a.Set(u, v, 1.0);
  }
  return a;
}

// exp(A) v via the dense eigendecomposition (ground truth).
std::vector<double> DenseExpApply(const SymmetricSparseMatrix& a,
                                  const std::vector<double>& v) {
  const DenseMatrix dense = DenseMatrix::FromSparse(a);
  const auto eig = SymmetricEigen(dense, /*compute_vectors=*/true);
  const int n = a.dim();
  std::vector<double> out(n, 0.0);
  for (int j = 0; j < n; ++j) {
    const auto col = eig.eigenvectors.Column(j);
    const double coef = std::exp(eig.eigenvalues[j]) * Dot(col, v);
    Axpy(coef, col, &out);
  }
  return out;
}

double DenseTraceExp(const SymmetricSparseMatrix& a) {
  const auto values = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  double acc = 0.0;
  for (double w : values) acc += std::exp(w);
  return acc;
}

TEST(LanczosTest, TridiagonalizeRecoversSpectrumOfSmallMatrix) {
  // On an n-dimensional space, n full-reorthogonalized steps give T with
  // exactly A's spectrum.
  Rng rng(5);
  SymmetricSparseMatrix a(6);
  a.Set(0, 1, 1.0);
  a.Set(1, 2, 1.0);
  a.Set(2, 3, 1.0);
  a.Set(3, 4, 1.0);
  a.Set(4, 5, 1.0);
  a.Set(5, 0, 1.0);  // cycle C6: eigenvalues 2cos(2 pi k / 6)
  std::vector<double> v0(6);
  FillGaussian(&rng, &v0);
  LanczosOptions options;
  options.steps = 6;
  options.full_reorthogonalize = true;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  const auto tri =
      TridiagonalEigen(lanczos.alpha, lanczos.beta, /*compute_vectors=*/false);
  const auto exact = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  // C6 has repeated eigenvalues; Lanczos from one vector finds each distinct
  // eigenvalue. Verify every Ritz value is an exact eigenvalue.
  for (double ritz : tri.eigenvalues) {
    double best = 1e9;
    for (double ev : exact) best = std::min(best, std::abs(ritz - ev));
    EXPECT_LT(best, 1e-8);
  }
}

TEST(LanczosTest, BasisIsOrthonormal) {
  Rng rng(8);
  const auto a = RandomGraph(60, 4.0, &rng);
  std::vector<double> v0(60);
  FillGaussian(&rng, &v0);
  LanczosOptions options;
  options.steps = 20;
  options.full_reorthogonalize = true;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  for (std::size_t i = 0; i < lanczos.basis.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double d = Dot(lanczos.basis[i], lanczos.basis[j]);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(LanczosTest, ZeroStartVectorBreaksDownGracefully) {
  SymmetricSparseMatrix a(4);
  a.Set(0, 1, 1.0);
  const std::vector<double> v0(4, 0.0);
  LanczosOptions options;
  options.steps = 3;
  const auto lanczos = LanczosTridiagonalize(a, v0, options);
  EXPECT_TRUE(lanczos.broke_down);
  ASSERT_EQ(lanczos.alpha.size(), 1u);
  EXPECT_DOUBLE_EQ(lanczos.alpha[0], 0.0);
}

TEST(LanczosTest, QuadratureMatchesExplicitForm) {
  Rng rng(23);
  const auto a = RandomGraph(40, 4.0, &rng);
  std::vector<double> v(40);
  FillGaussian(&rng, &v);
  const double quad = LanczosExpQuadrature(a, v, 25);
  const auto exact = DenseExpApply(a, v);
  EXPECT_NEAR(quad, Dot(v, exact), 1e-6 * std::abs(Dot(v, exact)));
}

TEST(LanczosTest, QuadratureZeroVectorIsZero) {
  SymmetricSparseMatrix a(5);
  a.Set(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(LanczosExpQuadrature(a, std::vector<double>(5, 0.0), 5),
                   0.0);
}

TEST(LanczosTest, LaneQuadratureIndependentOfBlockMates) {
  // Vertices 0..2 form an isolated path, so a probe supported there breaks
  // down after three steps, and vertex 3 is isolated, so e_3 breaks down
  // at once (beta exactly 0); Gaussian probes over the whole graph run all
  // twelve steps. Whatever shares a block — breaking-down lanes, a zero
  // probe, padding lanes — each lane's bits equal its one-lane call.
  Rng rng(29);
  auto a = RandomGraph(50, 4.0, &rng);
  for (int u = 0; u < 4; ++u) {
    for (int v = 0; v < a.dim(); ++v) {
      if (u != v) a.Remove(u, v);
    }
  }
  a.Set(0, 1, 1.0);
  a.Set(1, 2, 1.0);
  ASSERT_EQ(kLanes, 4);
  std::vector<std::vector<double>> probes(kLanes,
                                          std::vector<double>(a.dim(), 0.0));
  FillGaussian(&rng, &probes[0]);
  for (int i = 0; i < 3; ++i) probes[1][i] = rng.NextGaussian();
  probes[3][3] = 1.0;
  LanczosOptions options;
  options.steps = 12;
  ASSERT_FALSE(LanczosTridiagonalize(a, probes[0], options).broke_down);
  ASSERT_TRUE(LanczosTridiagonalize(a, probes[1], options).broke_down);
  ASSERT_TRUE(LanczosTridiagonalize(a, probes[3], options).broke_down);

  std::vector<double> single(kLanes);
  for (int b = 0; b < kLanes; ++b) {
    single[b] = LanczosExpQuadrature(a, probes[b], 12);
  }
  EXPECT_EQ(single[2], 0.0);
  EXPECT_EQ(single[3], 1.0);  // e_3^T exp(0) e_3
  EXPECT_NEAR(single[1], Dot(probes[1], DenseExpApply(a, probes[1])),
              1e-9 * single[1]);
  for (int lanes = 1; lanes <= kLanes; ++lanes) {
    for (int first = 0; first + lanes <= kLanes; ++first) {
      std::vector<double> out(lanes, -1.0);
      LanczosExpQuadratureLanes(a, &probes[first], lanes, 12, out.data());
      for (int b = 0; b < lanes; ++b) {
        EXPECT_EQ(out[b], single[first + b])
            << "lanes " << lanes << " first " << first << " lane " << b;
      }
    }
  }
}

TEST(LanczosTest, TopEigenvaluesMatchDense) {
  Rng rng(44);
  const auto a = RandomGraph(70, 5.0, &rng);
  const auto exact = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  Rng eig_rng(7);
  const auto top = TopEigenvalues(a, 5, 60, &eig_rng);
  ASSERT_EQ(top.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(top[i], exact[exact.size() - 1 - i], 1e-6);
  }
  // Descending order.
  for (int i = 0; i + 1 < 5; ++i) EXPECT_GE(top[i], top[i + 1] - 1e-12);
}

TEST(LanczosTest, TopEigenvaluesKZero) {
  SymmetricSparseMatrix a(5);
  Rng rng(1);
  EXPECT_TRUE(TopEigenvalues(a, 0, 10, &rng).empty());
}

TEST(LanczosTest, TopEigenvaluesKLargerThanDim) {
  SymmetricSparseMatrix a(3);
  a.Set(0, 1, 1.0);
  a.Set(1, 2, 1.0);
  Rng rng(2);
  const auto top = TopEigenvalues(a, 10, 10, &rng);
  EXPECT_EQ(top.size(), 3u);
}

// Property sweep: Lanczos exp quadrature error decays with steps across
// different graph densities.
class LanczosConvergenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LanczosConvergenceTest, ErrorDecaysMonotonicallyInSteps) {
  const auto [n, degree] = GetParam();
  Rng rng(500 + n);
  const auto a = RandomGraph(n, degree, &rng);
  std::vector<double> v(n);
  FillGaussian(&rng, &v);
  const auto exact_vec = DenseExpApply(a, v);
  const double exact = Dot(v, exact_vec);
  double err_small = std::abs(LanczosExpQuadrature(a, v, 4) - exact);
  double err_large = std::abs(LanczosExpQuadrature(a, v, 16) - exact);
  EXPECT_LE(err_large, err_small + 1e-9);
  EXPECT_LT(err_large, 1e-6 * std::abs(exact) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GraphFamilies, LanczosConvergenceTest,
    ::testing::Combine(::testing::Values(20, 40, 80),
                       ::testing::Values(2.0, 4.0, 8.0)));

TEST(LanczosTest, DenseTraceExpSanity) {
  // Cross-check helper used in other tests: C4 cycle eigenvalues 2,0,0,-2.
  SymmetricSparseMatrix a(4);
  a.Set(0, 1, 1.0);
  a.Set(1, 2, 1.0);
  a.Set(2, 3, 1.0);
  a.Set(3, 0, 1.0);
  const double expected = std::exp(2.0) + 2.0 + std::exp(-2.0);
  EXPECT_NEAR(DenseTraceExp(a), expected, 1e-10);
}

}  // namespace
}  // namespace ctbus::linalg
