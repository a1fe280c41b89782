#include "linalg/hutchinson.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::linalg {
namespace {

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

double DenseTraceExp(const SymmetricSparseMatrix& a) {
  const auto values = SymmetricEigenvalues(DenseMatrix::FromSparse(a));
  double acc = 0.0;
  for (double w : values) acc += std::exp(w);
  return acc;
}

TEST(HutchinsonTest, MakeGaussianProbesShape) {
  Rng rng(1);
  const auto probes = MakeGaussianProbes(10, 5, &rng);
  ASSERT_EQ(probes.size(), 5u);
  for (const auto& p : probes) EXPECT_EQ(p.size(), 10u);
}

TEST(HutchinsonTest, PaperDefaultsWithinOnePercentOnSparseGraph) {
  // Paper setting: s = 50 probes, t = 10 Lanczos steps, ~1% error claimed.
  Rng rng(42);
  const auto a = RandomGraph(120, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  Rng est_rng(7);
  const double est = EstimateTraceExp(a, 50, 10, &est_rng);
  EXPECT_NEAR(est, exact, 0.05 * exact);  // generous 5% for a single seed
}

TEST(HutchinsonTest, ErrorShrinksWithMoreProbes) {
  Rng rng(43);
  const auto a = RandomGraph(100, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  // Average absolute error over several seeds for 4 vs 64 probes.
  double err_few = 0.0;
  double err_many = 0.0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng r1(100 + seed);
    Rng r2(100 + seed);
    err_few += std::abs(EstimateTraceExp(a, 4, 12, &r1) - exact);
    err_many += std::abs(EstimateTraceExp(a, 64, 12, &r2) - exact);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(HutchinsonTest, ExactOnIdentityLikeEmptyGraph) {
  // A = 0 (empty graph): tr(exp(0)) = n exactly; the quadrature is exact and
  // Hutchinson is unbiased with E[v^T v] = n.
  SymmetricSparseMatrix a(30);
  Rng rng(5);
  const double est = EstimateTraceExp(a, 200, 2, &rng);
  EXPECT_NEAR(est, 30.0, 2.0);
}

TEST(HutchinsonTest, CommonProbesGiveIdenticalEstimateForSameMatrix) {
  Rng rng(44);
  const auto a = RandomGraph(60, 4.0, &rng);
  Rng probe_rng(9);
  const auto probes = MakeGaussianProbes(a.dim(), 20, &probe_rng);
  const double e1 = EstimateTraceExpWithProbes(a, probes, 10);
  const double e2 = EstimateTraceExpWithProbes(a, probes, 10);
  EXPECT_DOUBLE_EQ(e1, e2);
}

TEST(HutchinsonTest, CommonRandomNumbersReduceIncrementVariance) {
  // The increment tr(exp(A+e)) - tr(exp(A)) is tiny; estimating both terms
  // with the same probes must give far lower variance than independent
  // probes. This is the engineering linchpin of Delta(e) pre-computation.
  Rng rng(45);
  auto a = RandomGraph(80, 4.0, &rng);
  // Choose an absent edge to add.
  int u = -1, v = -1;
  for (int i = 0; i < 80 && u < 0; ++i) {
    for (int j = i + 1; j < 80; ++j) {
      if (!a.Contains(i, j)) {
        u = i;
        v = j;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);
  SymmetricSparseMatrix with_edge = a;
  with_edge.Set(u, v, 1.0);
  const double exact_increment = DenseTraceExp(with_edge) - DenseTraceExp(a);

  double crn_sq_err = 0.0;
  double indep_sq_err = 0.0;
  const int trials = 6;
  for (int trial = 0; trial < trials; ++trial) {
    Rng probe_rng(1000 + trial);
    const auto probes = MakeGaussianProbes(a.dim(), 30, &probe_rng);
    const double before = EstimateTraceExpWithProbes(a, probes, 12);
    const double after_crn = EstimateTraceExpWithProbes(with_edge, probes, 12);
    Rng other_rng(5000 + trial);
    const auto other_probes = MakeGaussianProbes(a.dim(), 30, &other_rng);
    const double after_indep =
        EstimateTraceExpWithProbes(with_edge, other_probes, 12);
    const double crn_err = (after_crn - before) - exact_increment;
    const double indep_err = (after_indep - before) - exact_increment;
    crn_sq_err += crn_err * crn_err;
    indep_sq_err += indep_err * indep_err;
  }
  EXPECT_LT(crn_sq_err, indep_sq_err);
}

// Bit-exact pins of EstimateTraceExpWithProbes, captured from the
// one-probe-at-a-time recurrence (Dot / Axpy / Norm2 / Scale per probe,
// full tridiagonal eigenvectors). Any kernel that computes the estimate
// differently — lane blocks, fused passes, first-row Gauss weights — must
// reproduce these bits exactly: every cached Delta(e), golden trace and
// snapshot checksum is downstream of them.
class HutchinsonPinnedTest : public ::testing::Test {
 protected:
  HutchinsonPinnedTest() {
    Rng graph_rng(2021);
    graph_ = RandomGraph(150, 4.0, &graph_rng);
    Rng probe_rng(13);
    probes_ = MakeGaussianProbes(graph_.dim(), 50, &probe_rng);
  }

  SymmetricSparseMatrix graph_;
  std::vector<std::vector<double>> probes_;
};

TEST_F(HutchinsonPinnedTest, FiftyProbesTenSteps) {
  EXPECT_EQ(EstimateTraceExpWithProbes(graph_, probes_, 10),
            0x1.c06c42e19409fp+9);
}

TEST_F(HutchinsonPinnedTest, EightProbesEightSteps) {
  const std::vector<std::vector<double>> probes(probes_.begin(),
                                                probes_.begin() + 8);
  EXPECT_EQ(EstimateTraceExpWithProbes(graph_, probes, 8),
            0x1.14613c06c4ca5p+10);
}

TEST_F(HutchinsonPinnedTest, PartialBlockWithZeroProbe) {
  // Seven probes leave a partial last lane block; the all-zero probe must
  // contribute exactly 0 without disturbing the probes that share its
  // block. The dense operator exercises the generic MatVec::ApplyBlock
  // (its row sums include the zero entries, hence the different last bit).
  std::vector<std::vector<double>> probes(probes_.begin() + 8,
                                          probes_.begin() + 15);
  probes[5].assign(graph_.dim(), 0.0);
  EXPECT_EQ(EstimateTraceExpWithProbes(graph_, probes, 10),
            0x1.53d3f1af9c2c6p+9);
  EXPECT_EQ(EstimateTraceExpWithProbes(DenseMatrix::FromSparse(graph_), probes,
                                       10),
            0x1.53d3f1af9c2c5p+9);
}

TEST(HutchinsonPinnedBreakdownTest, ThreeVertexPathBreaksDownEarly) {
  // A 3-dimensional Krylov space is exhausted after three steps, far short
  // of the ten requested: each lane must stop extending its own T.
  SymmetricSparseMatrix path(3);
  path.Set(0, 1, 1.0);
  path.Set(1, 2, 1.0);
  Rng rng(5);
  const auto probes = MakeGaussianProbes(3, 6, &rng);
  LanczosOptions options;
  options.steps = 10;
  EXPECT_TRUE(LanczosTridiagonalize(path, probes[0], options).broke_down);
  EXPECT_EQ(EstimateTraceExpWithProbes(path, probes, 10),
            0x1.be6f48dfe9b53p+1);
}

TEST(HutchinsonTest, RejectsNonPositiveProbeCount) {
  // probes = 0 used to fall through to a 0/0 average (NaN) that poisoned
  // every downstream connectivity value; it is now a documented error.
  Rng rng(3);
  EXPECT_THROW(MakeGaussianProbes(10, 0, &rng), std::invalid_argument);
  EXPECT_THROW(MakeGaussianProbes(10, -3, &rng), std::invalid_argument);
  const SymmetricSparseMatrix a(10);
  EXPECT_THROW(EstimateTraceExp(a, 0, 5, &rng), std::invalid_argument);
  EXPECT_THROW(EstimateTraceExpWithProbes(a, {}, 5), std::invalid_argument);
}

class HutchinsonSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HutchinsonSweepTest, RelativeErrorBoundedAcrossGraphSizes) {
  const int n = GetParam();
  Rng rng(600 + n);
  const auto a = RandomGraph(n, 4.0, &rng);
  const double exact = DenseTraceExp(a);
  Rng est_rng(8);
  const double est = EstimateTraceExp(a, 50, 10, &est_rng);
  EXPECT_NEAR(est, exact, 0.08 * exact);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HutchinsonSweepTest,
                         ::testing::Values(20, 50, 100, 150, 200));

}  // namespace
}  // namespace ctbus::linalg
