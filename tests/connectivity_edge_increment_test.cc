#include "connectivity/edge_increment.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "core/options.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "io/network_io.h"
#include "linalg/dense_eigen.h"
#include "linalg/dense_matrix.h"
#include "linalg/lanczos.h"
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

std::pair<int, int> FindAbsentEdge(const linalg::SymmetricSparseMatrix& a,
                                   linalg::Rng* rng) {
  for (;;) {
    const int u = static_cast<int>(rng->NextIndex(a.dim()));
    const int v = static_cast<int>(rng->NextIndex(a.dim()));
    if (u != v && !a.Contains(u, v)) return {u, v};
  }
}

EstimatorOptions TestOptions() {
  EstimatorOptions options;
  options.probes = 40;
  options.lanczos_steps = 20;
  options.seed = 7;
  return options;
}

TEST(EdgeIncrementTest, MatrixRestoredAfterCall) {
  linalg::Rng rng(1);
  auto a = RandomGraph(40, 3.0, &rng);
  const auto [u, v] = FindAbsentEdge(a, &rng);
  const auto entries_before = a.num_entries();
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  EdgeIncrement(&a, base, est, u, v);
  EXPECT_EQ(a.num_entries(), entries_before);
  EXPECT_FALSE(a.Contains(u, v));
}

TEST(EdgeIncrementTest, ExistingEdgeHasZeroIncrement) {
  linalg::Rng rng(2);
  auto a = RandomGraph(30, 3.0, &rng);
  // Pick an existing edge.
  int u = -1, v = -1;
  for (int i = 0; i < a.dim() && u < 0; ++i) {
    if (a.RowDegree(i) > 0) {
      u = i;
      v = a.Row(i)[0].col;
    }
  }
  ASSERT_GE(u, 0);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  EXPECT_DOUBLE_EQ(EdgeIncrement(&a, est.Estimate(a), est, u, v), 0.0);
}

TEST(EdgeIncrementTest, IncrementIsPositiveForNewEdges) {
  linalg::Rng rng(3);
  auto a = RandomGraph(50, 3.0, &rng);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  for (int trial = 0; trial < 10; ++trial) {
    const auto [u, v] = FindAbsentEdge(a, &rng);
    // CRN makes the increment exactly the deterministic difference of two
    // estimates with the same probes; it must be positive (monotonicity
    // survives CRN estimation in practice).
    EXPECT_GT(EdgeIncrement(&a, base, est, u, v), 0.0);
  }
}

TEST(EdgeIncrementTest, TracksExactIncrement) {
  linalg::Rng rng(4);
  auto a = RandomGraph(60, 4.0, &rng);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base_est = est.Estimate(a);
  const double base_exact = NaturalConnectivityExact(a);
  for (int trial = 0; trial < 5; ++trial) {
    const auto [u, v] = FindAbsentEdge(a, &rng);
    const double inc_est = EdgeIncrement(&a, base_est, est, u, v);
    a.Set(u, v, 1.0);
    const double inc_exact = NaturalConnectivityExact(a) - base_exact;
    a.Remove(u, v);
    // A stochastic estimate of a ~1e-2 increment: demand the right sign and
    // the right order of magnitude.
    EXPECT_NEAR(inc_est, inc_exact, 0.8 * inc_exact + 5e-3);
  }
}

TEST(EdgeIncrementTest, BatchMatchesIndividualCalls) {
  linalg::Rng rng(5);
  auto a = RandomGraph(40, 3.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 6; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  const auto batch = ComputeEdgeIncrements(&a, est, pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i],
                     EdgeIncrement(&a, base, est, pairs[i].first,
                                   pairs[i].second));
  }
}

TEST(EdgeIncrementTest, EdgeSetIncrementRestoresMatrix) {
  linalg::Rng rng(6);
  auto a = RandomGraph(40, 3.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 5; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  const auto entries_before = a.num_entries();
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  const double inc = EdgeSetIncrement(&a, base, est, pairs);
  EXPECT_EQ(a.num_entries(), entries_before);
  EXPECT_GT(inc, 0.0);
}

TEST(EdgeIncrementTest, EdgeSetIncrementSkipsExistingEdges) {
  linalg::Rng rng(7);
  auto a = RandomGraph(30, 3.0, &rng);
  int u = -1, v = -1;
  for (int i = 0; i < a.dim() && u < 0; ++i) {
    if (a.RowDegree(i) > 0) {
      u = i;
      v = a.Row(i)[0].col;
    }
  }
  ASSERT_GE(u, 0);
  const ConnectivityEstimator est(a.dim(), TestOptions());
  const double base = est.Estimate(a);
  EXPECT_DOUBLE_EQ(EdgeSetIncrement(&a, base, est, {{u, v}}), 0.0);
}

TEST(EdgeIncrementTest, NearAdditivityForSmallSets) {
  // Figure 3: the set increment is close to the sum of individual
  // increments (natural connectivity is approximately linear for small
  // additions). Verify within a loose factor.
  linalg::Rng rng(8);
  auto a = RandomGraph(60, 4.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 4; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  EstimatorOptions options = TestOptions();
  options.probes = 40;
  const ConnectivityEstimator est(a.dim(), options);
  const double base = est.Estimate(a);
  double sum = 0.0;
  for (const auto& [u, v] : pairs) {
    sum += EdgeIncrement(&a, base, est, u, v);
  }
  const double joint = EdgeSetIncrement(&a, base, est, pairs);
  EXPECT_NEAR(joint, sum, 0.5 * std::max(joint, sum));
}

// ------------------------------------------ ball quadrature vs oracles ----

struct GridFixture {
  graph::RoadNetwork road;
  graph::TransitNetwork transit;
};

GridFixture LoadGrid() {
  const std::string dir = CTBUS_TEST_DATA_DIR;
  auto road = io::LoadRoadNetwork(dir + "/grid_road.tsv");
  auto transit = io::LoadTransitNetwork(dir + "/grid_transit.tsv");
  EXPECT_TRUE(road.has_value());
  EXPECT_TRUE(transit.has_value());
  return {std::move(*road), std::move(*transit)};
}

/// Candidate (new-edge) stop pairs of a universe built at `tau`, every
/// `stride`-th one in universe order.
std::vector<std::pair<int, int>> CandidatePairs(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    double tau, int stride) {
  core::EdgeUniverseOptions options;
  options.tau = tau;
  const core::EdgeUniverse universe =
      core::EdgeUniverse::Build(road, transit, options);
  std::vector<std::pair<int, int>> pairs;
  int seen = 0;
  for (int e = 0; e < universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = universe.edge(e);
    if (edge.is_new && seen++ % stride == 0) pairs.emplace_back(edge.u, edge.v);
  }
  return pairs;
}

/// Every lane of the ball kernel against the full-support reference: the
/// whole adjacency with the candidate Set to s_i, one probe at a time.
void ExpectLanesMatchFullSupport(
    const linalg::SymmetricSparseMatrix& a,
    const std::vector<std::pair<int, int>>& pairs) {
  ASSERT_FALSE(pairs.empty());
  linalg::SymmetricSparseMatrix full = a;
  for (const auto& [u, v] : pairs) {
    double lanes[2 * kEdgeTraceNodes];
    EdgeTraceQuadratures(a, u, v, lanes);
    for (int i = 0; i < kEdgeTraceNodes; ++i) {
      full.Set(u, v, kEdgeTraceNode[i]);
      for (int sign = 0; sign < 2; ++sign) {
        std::vector<double> probe(a.dim(), 0.0);
        probe[u] = 1.0;
        probe[v] = sign == 0 ? 1.0 : -1.0;
        EXPECT_EQ(lanes[2 * i + sign],
                  linalg::LanczosExpQuadrature(full, probe,
                                               kEdgeTraceLanczosSteps))
            << "edge " << u << "-" << v << " node " << i << " sign " << sign;
      }
      full.Remove(u, v);
    }
  }
}

TEST(EdgeTraceIncrementTest, BallLanesBitIdenticalToFullSupportOnGrid) {
  const GridFixture grid = LoadGrid();
  ExpectLanesMatchFullSupport(
      grid.transit.AdjacencyMatrix(),
      CandidatePairs(grid.road, grid.transit, 900.0, /*stride=*/1));
}

TEST(EdgeTraceIncrementTest, BallLanesBitIdenticalToFullSupportOnChicago) {
  const gen::Dataset city = gen::MakeChicagoLike(0.2);
  const auto pairs =
      CandidatePairs(city.road, city.transit, 500.0, /*stride=*/7);
  ASSERT_GE(pairs.size(), 20u);
  ExpectLanesMatchFullSupport(city.transit.AdjacencyMatrix(), pairs);
}

/// tr e^A by dense eigendecomposition.
double ExactTraceExp(const linalg::SymmetricSparseMatrix& a) {
  double trace = 0.0;
  for (double w : linalg::SymmetricEigenvalues(
           linalg::DenseMatrix::FromSparse(a))) {
    trace += std::exp(w);
  }
  return trace;
}

/// Quadrature Delta(e) over the exact base trace against the dense
/// oracle lambda(A + e) - lambda(A), within 1e-3 relative.
void ExpectMatchesDenseOracle(linalg::SymmetricSparseMatrix* a,
                              const std::vector<std::pair<int, int>>& pairs) {
  ASSERT_FALSE(pairs.empty());
  const double base_trace = ExactTraceExp(*a);
  const double base_lambda = NaturalConnectivityExact(*a);
  for (const auto& [u, v] : pairs) {
    const double quadrature =
        IncrementFromTrace(EdgeTraceIncrement(*a, u, v), base_trace);
    a->Set(u, v, 1.0);
    const double exact = NaturalConnectivityExact(*a) - base_lambda;
    a->Remove(u, v);
    ASSERT_GT(exact, 0.0);
    EXPECT_NEAR(quadrature, exact, 1e-3 * exact)
        << "edge " << u << "-" << v;
  }
}

TEST(EdgeTraceIncrementTest, MatchesDenseOracleOnFixedGraph) {
  linalg::Rng rng(21);
  auto a = RandomGraph(60, 3.0, &rng);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 12; ++i) pairs.push_back(FindAbsentEdge(a, &rng));
  ExpectMatchesDenseOracle(&a, pairs);
}

TEST(EdgeTraceIncrementTest, MatchesDenseOracleOnGrid) {
  const GridFixture grid = LoadGrid();
  auto a = grid.transit.AdjacencyMatrix();
  ExpectMatchesDenseOracle(
      &a, CandidatePairs(grid.road, grid.transit, 900.0, /*stride=*/1));
}

TEST(EdgeTraceIncrementTest, ExistingEdgeHasZeroTraceIncrement) {
  linalg::Rng rng(22);
  const auto a = RandomGraph(30, 3.0, &rng);
  for (int u = 0; u < a.dim(); ++u) {
    if (a.RowDegree(u) == 0) continue;
    EXPECT_EQ(EdgeTraceIncrement(a, u, a.Row(u)[0].col), 0.0);
    break;
  }
}

TEST(EdgeTraceIncrementTest, MirrorCandidatesOnGridGetEqualIncrements) {
  // The grid's stops sit on a 3 x 3 lattice (stop 3 r + c at row r,
  // column c) with routes along the left column and the bottom row, so
  // the network is symmetric under r <-> c. Mirror candidates must get
  // the same Delta(e) up to rounding; the Hutchinson 6 x 6 precompute gave
  // 1-4 a zero and its mirror 3-4 0.111.
  const GridFixture grid = LoadGrid();
  core::CtBusOptions options;
  options.tau = 900.0;
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  const core::Precompute pre =
      core::PlanningContext::RunPrecompute(grid.road, grid.transit, options);
  std::map<std::pair<int, int>, double> by_pair;
  for (int e = 0; e < pre.universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = pre.universe.edge(e);
    if (edge.is_new) by_pair[{edge.u, edge.v}] = pre.increments[e];
  }
  ASSERT_TRUE(by_pair.count({1, 4}));
  ASSERT_TRUE(by_pair.count({3, 4}));
  const auto mirror = [](int s) { return 3 * (s % 3) + s / 3; };
  int mirrored = 0;
  for (const auto& [pair, increment] : by_pair) {
    const int mu = mirror(pair.first);
    const int mv = mirror(pair.second);
    const auto it = by_pair.find({std::min(mu, mv), std::max(mu, mv)});
    ASSERT_NE(it, by_pair.end()) << pair.first << "-" << pair.second;
    EXPECT_GT(increment, 0.0);
    EXPECT_NEAR(increment, it->second, 1e-12 * increment)
        << pair.first << "-" << pair.second;
    ++mirrored;
  }
  EXPECT_EQ(mirrored, pre.universe.num_new_edges());
}

TEST(EdgeTraceIncrementTest, RebaseKeepsTheTraceIncrement) {
  // Rebasing re-expresses one trace increment against a new base trace.
  const double trace_increment = 3.5;
  const double from = 400.0;
  const double to = 437.0;
  EXPECT_NEAR(RebaseIncrement(IncrementFromTrace(trace_increment, from), from,
                              to),
              IncrementFromTrace(trace_increment, to), 1e-15);
  EXPECT_EQ(RebaseIncrement(0.0, from, to), 0.0);
}

}  // namespace
}  // namespace ctbus::connectivity
