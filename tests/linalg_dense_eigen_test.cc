#include "linalg/dense_eigen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace ctbus::linalg {
namespace {

DenseMatrix RandomSymmetric(int n, Rng* rng) {
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng->NextGaussian();
      a.Set(i, j, v);
      a.Set(j, i, v);
    }
  }
  return a;
}

// Adjacency matrix of the path graph P_n; eigenvalues are
// 2 cos(i*pi/(n+1)), i = 1..n (closed form used in Lemma 4).
DenseMatrix PathGraphAdjacency(int n) {
  DenseMatrix a(n, n);
  for (int i = 0; i + 1 < n; ++i) {
    a.Set(i, i + 1, 1.0);
    a.Set(i + 1, i, 1.0);
  }
  return a;
}

TEST(DenseEigenTest, EmptyMatrix) {
  const auto result = SymmetricEigen(DenseMatrix(0, 0), true);
  EXPECT_TRUE(result.eigenvalues.empty());
}

TEST(DenseEigenTest, OneByOne) {
  DenseMatrix a(1, 1);
  a.Set(0, 0, 4.2);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NEAR(values[0], 4.2, 1e-14);
}

TEST(DenseEigenTest, TwoByTwoKnownSpectrum) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  DenseMatrix a(2, 2);
  a.Set(0, 0, 2.0);
  a.Set(1, 1, 2.0);
  a.Set(0, 1, 1.0);
  a.Set(1, 0, 1.0);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
}

TEST(DenseEigenTest, DiagonalMatrixSpectrumSorted) {
  DenseMatrix a(3, 3);
  a.Set(0, 0, 5.0);
  a.Set(1, 1, -2.0);
  a.Set(2, 2, 1.0);
  const auto values = SymmetricEigenvalues(a);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], -2.0, 1e-12);
  EXPECT_NEAR(values[1], 1.0, 1e-12);
  EXPECT_NEAR(values[2], 5.0, 1e-12);
}

TEST(DenseEigenTest, PathGraphClosedForm) {
  const int n = 9;
  const auto values = SymmetricEigenvalues(PathGraphAdjacency(n));
  ASSERT_EQ(values.size(), static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    const double expected = 2.0 * std::cos(i * M_PI / (n + 1));
    // Eigenvalues ascending; closed form descending in i.
    EXPECT_NEAR(values[n - i], expected, 1e-12);
  }
}

TEST(DenseEigenTest, CompleteGraphSpectrum) {
  // K_n adjacency has eigenvalues n-1 (once) and -1 (n-1 times).
  const int n = 7;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) a.Set(i, j, 1.0);
    }
  }
  const auto values = SymmetricEigenvalues(a);
  for (int i = 0; i + 1 < n; ++i) EXPECT_NEAR(values[i], -1.0, 1e-12);
  EXPECT_NEAR(values[n - 1], n - 1.0, 1e-12);
}

TEST(DenseEigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(31);
  const DenseMatrix a = RandomSymmetric(20, &rng);
  double trace = 0.0;
  for (int i = 0; i < 20; ++i) trace += a.At(i, i);
  const auto values = SymmetricEigenvalues(a);
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(sum, trace, 1e-10);
}

TEST(DenseEigenTest, EigenvectorsSatisfyDefinition) {
  Rng rng(32);
  const DenseMatrix a = RandomSymmetric(15, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  for (int j = 0; j < 15; ++j) {
    const std::vector<double> x = result.eigenvectors.Column(j);
    std::vector<double> ax(15);
    a.Apply(x, &ax);
    for (int i = 0; i < 15; ++i) {
      EXPECT_NEAR(ax[i], result.eigenvalues[j] * x[i], 1e-10);
    }
  }
}

TEST(DenseEigenTest, EigenvectorsOrthonormal) {
  Rng rng(33);
  const DenseMatrix a = RandomSymmetric(12, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      const double d =
          Dot(result.eigenvectors.Column(i), result.eigenvectors.Column(j));
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(DenseEigenTest, ValuesOnlyMatchesFullSolve) {
  Rng rng(34);
  const DenseMatrix a = RandomSymmetric(25, &rng);
  const auto full = SymmetricEigen(a, /*compute_vectors=*/true);
  const auto values_only = SymmetricEigenvalues(a);
  ASSERT_EQ(full.eigenvalues.size(), values_only.size());
  for (std::size_t i = 0; i < values_only.size(); ++i) {
    EXPECT_NEAR(full.eigenvalues[i], values_only[i], 1e-10);
  }
}

TEST(DenseEigenTest, TridiagonalMatchesDense) {
  Rng rng(35);
  const int n = 14;
  std::vector<double> diag(n), off(n - 1);
  for (double& v : diag) v = rng.NextGaussian();
  for (double& v : off) v = rng.NextGaussian();
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) a.Set(i, i, diag[i]);
  for (int i = 0; i + 1 < n; ++i) {
    a.Set(i, i + 1, off[i]);
    a.Set(i + 1, i, off[i]);
  }
  const auto tri = TridiagonalEigen(diag, off, /*compute_vectors=*/true);
  const auto dense = SymmetricEigenvalues(a);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(tri.eigenvalues[i], dense[i], 1e-10);
  // Eigenvectors must diagonalize the tridiagonal matrix.
  for (int j = 0; j < n; ++j) {
    const auto x = tri.eigenvectors.Column(j);
    std::vector<double> ax(n);
    a.Apply(x, &ax);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[i], tri.eigenvalues[j] * x[i], 1e-10);
    }
  }
}

TEST(DenseEigenTest, TridiagonalSingleElement) {
  const auto result = TridiagonalEigen({3.0}, {}, true);
  ASSERT_EQ(result.eigenvalues.size(), 1u);
  EXPECT_NEAR(result.eigenvalues[0], 3.0, 1e-14);
  EXPECT_NEAR(result.eigenvectors.At(0, 0), 1.0, 1e-14);
}

TEST(DenseEigenTest, TridiagonalFirstRowBitIdenticalToFullSolve) {
  // The first-row solve runs the same QL rotations on row 0 only; since a
  // rotation never mixes rows, values and weights must match exactly.
  Rng rng(36);
  for (int n = 1; n <= 24; ++n) {
    std::vector<double> diag(n), off(n - 1);
    for (double& v : diag) v = rng.NextGaussian();
    for (double& v : off) v = rng.NextDouble(0.1, 2.0);
    const auto full = TridiagonalEigen(diag, off, /*compute_vectors=*/true);
    const auto row = TridiagonalEigenFirstRow(diag, off);
    ASSERT_EQ(row.eigenvalues.size(), static_cast<std::size_t>(n));
    ASSERT_EQ(row.eigenvectors.rows(), 1);
    ASSERT_EQ(row.eigenvectors.cols(), n);
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(row.eigenvalues[j], full.eigenvalues[j]) << n << " " << j;
      EXPECT_EQ(row.eigenvectors.At(0, j), full.eigenvectors.At(0, j))
          << n << " " << j;
    }
  }
  EXPECT_TRUE(TridiagonalEigenFirstRow({}, {}).eigenvalues.empty());
}

class DenseEigenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DenseEigenPropertyTest, ReconstructionFromSpectrum) {
  Rng rng(1000 + GetParam());
  const int n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, &rng);
  const auto result = SymmetricEigen(a, /*compute_vectors=*/true);
  // Rebuild A = Z diag(w) Z^T and compare entrywise.
  DenseMatrix rebuilt(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += result.eigenvalues[k] * result.eigenvectors.At(i, k) *
               result.eigenvectors.At(j, k);
      }
      rebuilt.Set(i, j, acc);
    }
  }
  EXPECT_LT(rebuilt.FrobeniusDistance(a), 1e-9 * std::max(1, n));
}

TEST_P(DenseEigenPropertyTest, SpectrumInvariantUnderSymmetricPermutation) {
  Rng rng(2000 + GetParam());
  const int n = GetParam();
  const DenseMatrix a = RandomSymmetric(n, &rng);
  // Permute rows+columns by reversing indices; spectrum must not change.
  DenseMatrix p(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) p.Set(i, j, a.At(n - 1 - i, n - 1 - j));
  }
  const auto va = SymmetricEigenvalues(a);
  const auto vp = SymmetricEigenvalues(p);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(va[i], vp[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseEigenPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace ctbus::linalg
