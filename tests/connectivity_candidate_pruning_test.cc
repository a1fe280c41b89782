#include "connectivity/candidate_pruning.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "core/options.h"
#include "core/planning_context.h"
#include "io/network_io.h"
#include "io/snapshot.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/rng.h"
#include "linalg/sparse_matrix.h"

#ifndef CTBUS_TEST_DATA_DIR
#define CTBUS_TEST_DATA_DIR "tests/data"
#endif

namespace ctbus::connectivity {
namespace {

linalg::SymmetricSparseMatrix RandomGraph(int n, double avg_degree,
                                          linalg::Rng* rng) {
  linalg::SymmetricSparseMatrix a(n);
  const int edges = static_cast<int>(n * avg_degree / 2.0);
  for (int i = 0; i < edges; ++i) {
    const int u = static_cast<int>(rng->NextIndex(n));
    const int v = static_cast<int>(rng->NextIndex(n));
    if (u != v) a.Set(u, v, 1.0);
  }
  return a;
}

std::vector<std::pair<int, int>> AbsentEdges(
    const linalg::SymmetricSparseMatrix& a) {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < a.dim(); ++u) {
    for (int v = u + 1; v < a.dim(); ++v) {
      if (!a.Contains(u, v)) edges.emplace_back(u, v);
    }
  }
  return edges;
}

TEST(CandidateScreenTest, BoundDominatesTrueIncrement) {
  // Golden-Thompson with (near-)exact communicabilities: the screen bound
  // must dominate the exact Delta(e) for every absent edge. base_lambda is
  // the exact connectivity here so the only slack is quadrature error.
  linalg::Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    auto a = RandomGraph(25, 3.0, &rng);
    const double lambda_g = NaturalConnectivityExact(a);
    const auto screen =
        CandidateScreen::Build(a, lambda_g, /*lanczos_steps=*/12, 77);
    for (const auto& [u, v] : AbsentEdges(a)) {
      a.Set(u, v, 1.0);
      const double exact_increment = NaturalConnectivityExact(a) - lambda_g;
      a.Remove(u, v);
      EXPECT_GE(screen.EdgeBound(u, v), exact_increment - 1e-8)
          << "edge (" << u << ", " << v << ") trial " << trial;
    }
  }
}

TEST(CandidateScreenTest, PinnedBoundsOnFixedGraph) {
  // Exact screen outputs for one fixed graph, estimator and step count.
  // The estimator baseline, the uniform cap, the diagonal
  // communicabilities and the per-edge bounds must stay byte-equal under
  // any refactor of the quadrature path; a change here shifts every
  // pruned precompute table and the cache bytes built from it.
  linalg::Rng rng(12);
  const auto a = RandomGraph(40, 4.0, &rng);
  const ConnectivityEstimator estimator(
      a.dim(), {/*probes=*/8, /*lanczos_steps=*/8, /*seed=*/3});
  const double base_lambda = estimator.Estimate(a);
  EXPECT_EQ(base_lambda, 0x1.daf8275c293cfp+0);
  const auto screen =
      CandidateScreen::Build(a, base_lambda, /*lanczos_steps=*/8, 77);
  EXPECT_EQ(screen.UniformCap(), 0x1.e62f1e8c49894p-2);
  EXPECT_EQ(screen.DiagonalCommunicability(0), 0x1p+0);
  EXPECT_EQ(screen.DiagonalCommunicability(9), 0x1.5438ba73e736ep+3);
  EXPECT_EQ(screen.DiagonalCommunicability(22), 0x1.e0e187144088p+3);
  EXPECT_EQ(screen.DiagonalCommunicability(31), 0x1.d9f8952343447p+3);
  ASSERT_FALSE(a.Contains(0, 1));
  ASSERT_FALSE(a.Contains(5, 6));
  ASSERT_FALSE(a.Contains(11, 29));
  ASSERT_FALSE(a.Contains(38, 39));
  EXPECT_EQ(screen.EdgeBound(0, 1), 0x1.362cefa591c1ep-7);
  EXPECT_EQ(screen.EdgeBound(5, 6), 0x1.08a181e849d0fp-6);
  EXPECT_EQ(screen.EdgeBound(11, 29), 0x1.7f1e47b5e5ce9p-6);
  EXPECT_EQ(screen.EdgeBound(38, 39), 0x1.3b10c88664c1dp-5);
}

TEST(CandidateScreenTest, PinnedPrunedPrecomputeOnGridFixture) {
  // One pruned RunPrecompute on the committed 5x5 grid fixture, pinned
  // by the FNV-1a-64 checksum of its canonical encoding (timings zeroed).
  // Covers the screen, both estimate passes and the pruned flags end to
  // end.
  const std::string dir = CTBUS_TEST_DATA_DIR;
  const auto road = io::LoadRoadNetwork(dir + "/grid_road.tsv");
  const auto transit = io::LoadTransitNetwork(dir + "/grid_transit.tsv");
  ASSERT_TRUE(road.has_value());
  ASSERT_TRUE(transit.has_value());
  core::CtBusOptions options;
  options.tau = 900.0;
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  options.prune_candidates = true;
  options.prune_keep_rank = 4;
  options.precompute_threads = 1;
  core::Precompute pre =
      core::PlanningContext::RunPrecompute(*road, *transit, options);
  EXPECT_EQ(pre.universe.num_new_edges(), 8);
  EXPECT_EQ(pre.stats.num_increments_estimated, 5);
  EXPECT_EQ(pre.stats.num_increments_pruned, 3);
  pre.stats.universe_seconds = 0.0;
  pre.stats.increments_seconds = 0.0;
  std::vector<std::uint8_t> bytes;
  io::EncodePrecompute(pre, &bytes);
  ASSERT_EQ(bytes.size(), 762u);
  EXPECT_EQ(io::SnapshotChecksum(bytes.data(), bytes.size()),
            0xee63f81735da87b4ULL);
}

TEST(CandidateScreenTest, BoundClampedByUniformCap) {
  linalg::Rng rng(13);
  const auto a = RandomGraph(30, 4.0, &rng);
  const auto screen = CandidateScreen::Build(
      a, NaturalConnectivityExact(a), /*lanczos_steps=*/8, 77);
  EXPECT_GE(screen.UniformCap(), 0.0);
  for (const auto& [u, v] : AbsentEdges(a)) {
    EXPECT_LE(screen.EdgeBound(u, v), screen.UniformCap());
  }
}

TEST(CandidateScreenTest, DiagonalCommunicabilityMatchesDense) {
  linalg::Rng rng(14);
  const auto a = RandomGraph(20, 3.0, &rng);
  const auto eig = linalg::SymmetricEigen(linalg::DenseMatrix::FromSparse(a),
                                          /*compute_vectors=*/true);
  const auto screen = CandidateScreen::Build(
      a, NaturalConnectivityExact(a), /*lanczos_steps=*/16, 77);
  for (int u = 0; u < a.dim(); ++u) {
    double muu = 0.0;
    for (int j = 0; j < a.dim(); ++j) {
      const double z = eig.eigenvectors.At(u, j);
      muu += std::exp(eig.eigenvalues[j]) * z * z;
    }
    EXPECT_NEAR(screen.DiagonalCommunicability(u), muu, 1e-8 * muu + 1e-10);
  }
}

TEST(CandidateScreenTest, DeterministicForFixedSeed) {
  linalg::Rng rng(15);
  const auto a = RandomGraph(35, 4.0, &rng);
  const double lambda_g = NaturalConnectivityExact(a);
  const auto s1 = CandidateScreen::Build(a, lambda_g, 8, 42);
  const auto s2 = CandidateScreen::Build(a, lambda_g, 8, 42);
  EXPECT_EQ(s1.UniformCap(), s2.UniformCap());
  for (const auto& [u, v] : AbsentEdges(a)) {
    EXPECT_EQ(s1.EdgeBound(u, v), s2.EdgeBound(u, v));
  }
}

TEST(CandidateScreenTest, EmptyGraphBuilds) {
  linalg::SymmetricSparseMatrix a(0);
  const auto screen = CandidateScreen::Build(a, 0.0, 8, 1);
  EXPECT_EQ(screen.UniformCap(), 0.0);
}

}  // namespace
}  // namespace ctbus::connectivity
