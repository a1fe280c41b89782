#include "linalg/sparse_matrix.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/rng.h"

namespace ctbus::linalg {
namespace {

TEST(SparseMatrixTest, EmptyMatrix) {
  SymmetricSparseMatrix m;
  EXPECT_EQ(m.dim(), 0);
  EXPECT_EQ(m.num_entries(), 0);
}

TEST(SparseMatrixTest, SetStoresSymmetrically) {
  SymmetricSparseMatrix m(4);
  m.Set(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.5);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.5);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, SetOverwrites) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(SparseMatrixTest, SetAppendsNewEntriesAtRowTails) {
  // The staged-edge views of connectivity/edge_increment.cc rely on it:
  // a new entry goes last in both rows, an overwrite stays in place.
  SymmetricSparseMatrix m(4);
  m.Set(0, 2, 1.0);
  m.Set(3, 0, 1.0);
  m.Set(0, 1, 1.0);
  m.Set(2, 0, 4.0);
  ASSERT_EQ(m.RowDegree(0), 3);
  EXPECT_EQ(m.Row(0)[0].col, 2);
  EXPECT_DOUBLE_EQ(m.Row(0)[0].value, 4.0);
  EXPECT_EQ(m.Row(0)[1].col, 3);
  EXPECT_EQ(m.Row(0)[2].col, 1);
  EXPECT_EQ(m.Row(3)[0].col, 0);
}

TEST(SparseMatrixTest, AtMissingIsZero) {
  SymmetricSparseMatrix m(3);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(SparseMatrixTest, RowDegreeCounts) {
  SymmetricSparseMatrix m(4);
  m.Set(0, 1, 1.0);
  m.Set(0, 2, 1.0);
  m.Set(0, 3, 1.0);
  EXPECT_EQ(m.RowDegree(0), 3);
  EXPECT_EQ(m.RowDegree(1), 1);
}

TEST(SparseMatrixTest, ApplyMatchesManualProduct) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 2.0);
  m.Set(1, 2, -1.0);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  m.Apply(x, &y);
  // A = [[0,2,0],[2,0,-1],[0,-1,0]]
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -2.0);
}

TEST(SparseMatrixTest, ApplyMatchesDenseOnRandomGraph) {
  Rng rng(99);
  const int n = 40;
  SymmetricSparseMatrix sparse(n);
  for (int trial = 0; trial < 200; ++trial) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u == v) continue;
    sparse.Set(u, v, rng.NextDouble(-2.0, 2.0));
  }
  const DenseMatrix dense = DenseMatrix::FromSparse(sparse);
  std::vector<double> x(n);
  for (double& val : x) val = rng.NextGaussian();
  std::vector<double> ys(n), yd(n);
  sparse.Apply(x, &ys);
  dense.Apply(x, &yd);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrixTest, ApplyBlockBitIdenticalToMatVecDefault) {
  // The lane-inner override must reproduce, bit for bit, the generic
  // gather -> Apply -> scatter reference for every block width: the
  // specialized 1 and kLanes paths and the fallback widths alike.
  Rng rng(17);
  const int n = 60;
  SymmetricSparseMatrix a(n);
  for (int trial = 0; trial < 240; ++trial) {
    const int u = static_cast<int>(rng.NextIndex(n));
    const int v = static_cast<int>(rng.NextIndex(n));
    if (u != v) a.Set(u, v, rng.NextDouble(-2.0, 2.0));
  }
  for (int lanes = 1; lanes <= kLanes + 1; ++lanes) {
    std::vector<double> x(static_cast<std::size_t>(n) * lanes);
    for (double& val : x) val = rng.NextGaussian();
    std::vector<double> fast(x.size(), -1.0);
    std::vector<double> reference(x.size(), -2.0);
    a.ApplyBlock(x.data(), lanes, fast.data());
    a.MatVec::ApplyBlock(x.data(), lanes, reference.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(fast[i], reference[i]) << "lanes " << lanes << " at " << i;
    }
  }
}

TEST(SparseMatrixTest, SpectralNormUpperBoundDominates) {
  // For the path graph P3, ||A||_2 = sqrt(2) ~ 1.414; inf-norm bound is 2.
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 1.0);
  m.Set(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(m.SpectralNormUpperBound(), 2.0);
}

TEST(SparseMatrixTest, RejectsDiagonalEntriesInAnyBuildMode) {
  // These used to be plain asserts, which compile out under -DNDEBUG (the
  // release tier) and let a diagonal Set silently corrupt the symmetric
  // invariant. The preconditions are now always-on throws, so this test
  // passes in every build mode.
  SymmetricSparseMatrix m(4);
  EXPECT_THROW(m.Set(2, 2, 1.0), std::invalid_argument);
  EXPECT_EQ(m.num_entries(), 0u);
}

TEST(SparseMatrixTest, RejectsOutOfRangeIndices) {
  SymmetricSparseMatrix m(4);
  EXPECT_THROW(m.Set(0, 4, 1.0), std::out_of_range);
  EXPECT_THROW(m.Set(-1, 2, 1.0), std::out_of_range);
  EXPECT_EQ(m.num_entries(), 0u);
  // A failed mutation must leave prior state untouched.
  m.Set(0, 1, 2.0);
  EXPECT_THROW(m.Set(0, 9, 1.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.num_entries(), 1u);
}

TEST(SparseMatrixTest, DenseFromSparseRoundTrip) {
  SymmetricSparseMatrix m(3);
  m.Set(0, 1, 5.0);
  const DenseMatrix d = DenseMatrix::FromSparse(m);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d.At(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d.At(2, 2), 0.0);
}

}  // namespace
}  // namespace ctbus::linalg
