#include "core/planning_context.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions FastOptions() {
  CtBusOptions options;
  options.k = 8;
  options.online_estimator = {/*probes=*/20, /*lanczos_steps=*/10,
                              /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

class PlanningContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
    context_ = new PlanningContext(
        PlanningContext::Build(dataset_->road, dataset_->transit,
                               FastOptions()));
  }
  static void TearDownTestSuite() {
    delete context_;
    delete dataset_;
    context_ = nullptr;
    dataset_ = nullptr;
  }

  static gen::Dataset* dataset_;
  static PlanningContext* context_;
};

gen::Dataset* PlanningContextTest::dataset_ = nullptr;
PlanningContext* PlanningContextTest::context_ = nullptr;

TEST_F(PlanningContextTest, RankedListsCoverUniverse) {
  const int n = context_->universe().num_edges();
  EXPECT_EQ(context_->demand_list().size(), n);
  EXPECT_EQ(context_->increment_list().size(), n);
  EXPECT_EQ(context_->objective_list().size(), n);
  EXPECT_EQ(static_cast<int>(context_->increments().size()), n);
}

TEST_F(PlanningContextTest, ExistingEdgesHaveZeroIncrement) {
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) {
      EXPECT_DOUBLE_EQ(context_->increments()[e], 0.0);
    } else {
      EXPECT_GE(context_->increments()[e], 0.0);
    }
  }
}

TEST_F(PlanningContextTest, NormalizationMatchesEquation12) {
  const auto& options = context_->options();
  EXPECT_DOUBLE_EQ(context_->d_max(),
                   context_->demand_list().TopSum(options.k));
  EXPECT_DOUBLE_EQ(context_->lambda_max(),
                   context_->increment_list().TopSum(options.k));
  EXPECT_GT(context_->d_max(), 0.0);
  EXPECT_GT(context_->lambda_max(), 0.0);
}

TEST_F(PlanningContextTest, ObjectiveIsWeightedSum) {
  const double o = context_->Objective(context_->d_max() / 2,
                                       context_->lambda_max() / 2);
  EXPECT_NEAR(o, 0.5, 1e-12);
  // w = 0.5: swapping demand and connectivity magnitude keeps the value.
  EXPECT_NEAR(context_->Objective(context_->d_max(), 0.0),
              context_->Objective(0.0, context_->lambda_max()), 1e-12);
}

TEST_F(PlanningContextTest, ObjectiveListMatchesEquation11) {
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    const double expected = context_->Objective(
        context_->universe().edge(e).demand, context_->increments()[e]);
    EXPECT_DOUBLE_EQ(context_->objective_list().ValueOf(e), expected);
  }
}

TEST_F(PlanningContextTest, BaseLambdaMatchesEstimatorOnBaseNetwork) {
  const auto base = dataset_->transit.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(context_->base_lambda(),
                   context_->estimator().Estimate(base));
}

TEST_F(PlanningContextTest, OnlineIncrementOfEmptyPathIsZero) {
  EXPECT_DOUBLE_EQ(context_->OnlineConnectivityIncrement({}), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementOfExistingEdgesIsZero) {
  std::vector<int> existing;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (!context_->universe().edge(e).is_new) {
      existing.push_back(e);
      if (existing.size() == 3) break;
    }
  }
  EXPECT_DOUBLE_EQ(context_->OnlineConnectivityIncrement(existing), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementPositiveForNewEdges) {
  std::vector<int> new_edges;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
      if (new_edges.size() == 3) break;
    }
  }
  ASSERT_FALSE(new_edges.empty());
  EXPECT_GT(context_->OnlineConnectivityIncrement(new_edges), 0.0);
}

TEST_F(PlanningContextTest, OnlineIncrementRestoresScratchState) {
  std::vector<int> new_edges;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
      if (new_edges.size() == 2) break;
    }
  }
  const double first = context_->OnlineConnectivityIncrement(new_edges);
  const double second = context_->OnlineConnectivityIncrement(new_edges);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST_F(PlanningContextTest, ConcurrentOnlineIncrementsMatchSerialBits) {
  // The context's adjacency is immutable and every call stages its edges in
  // a view of its own, so threads may evaluate on one context at once.
  std::vector<int> new_edges;
  int existing = -1;
  for (int e = 0; e < context_->universe().num_edges(); ++e) {
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
    } else if (existing < 0) {
      existing = e;
    }
  }
  ASSERT_GE(new_edges.size(), 8u);
  ASSERT_GE(existing, 0);
  std::vector<std::vector<int>> paths;
  for (std::size_t i = 0; i + 4 <= new_edges.size() && paths.size() < 24;
       i += 2) {
    const std::size_t size = 1 + i % 4;
    std::vector<int> path(new_edges.begin() + i,
                          new_edges.begin() + i + size);
    if (i % 3 == 0) path.push_back(existing);
    paths.push_back(std::move(path));
  }
  std::vector<double> serial;
  for (const auto& path : paths) {
    serial.push_back(context_->OnlineConnectivityIncrement(path));
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<double>> concurrent(
      kThreads, std::vector<double>(paths.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the paths from its own offset.
      for (std::size_t k = 0; k < paths.size(); ++k) {
        const std::size_t i = (k + 3 * t) % paths.size();
        concurrent[t][i] = context_->OnlineConnectivityIncrement(paths[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_EQ(concurrent[t][i], serial[i]) << "thread " << t << " path " << i;
    }
  }
}

TEST_F(PlanningContextTest, LinearIncrementSumsPrecomputedValues) {
  std::vector<int> edges = {0};
  if (context_->universe().num_edges() > 1) edges.push_back(1);
  double expected = 0.0;
  for (int e : edges) expected += context_->increments()[e];
  EXPECT_DOUBLE_EQ(context_->LinearConnectivityIncrement(edges), expected);
}

TEST_F(PlanningContextTest, PathBoundDominatesOnlineIncrements) {
  // The Lemma 4 bound for k edges must dominate the online increment of any
  // path-shaped set of <= k new edges. Use the top increment edges as an
  // adversarial (if not path-shaped, still covered by Lemma 3 <= Lemma 4
  // violation check being conservative) sample of 2.
  std::vector<int> new_edges;
  for (int rank = 0; rank < context_->increment_list().size(); ++rank) {
    const int e = context_->increment_list().EdgeAtRank(rank);
    if (context_->universe().edge(e).is_new) {
      new_edges.push_back(e);
      if (new_edges.size() == 2) break;
    }
  }
  ASSERT_EQ(new_edges.size(), 2u);
  const double bound = context_->PathConnectivityIncrementBound(
      context_->options().k);
  EXPECT_GT(bound, 0.0);
  // Pairs of edges are not necessarily a path, but a 2-edge increment is
  // still far below the k-edge path bound in practice.
  EXPECT_GE(bound, context_->OnlineConnectivityIncrement(new_edges) * 0.5);
}

TEST_F(PlanningContextTest, PrecomputeStatsPopulated) {
  const auto& stats = context_->precompute_stats();
  EXPECT_EQ(stats.num_new_edges, context_->universe().num_new_edges());
  EXPECT_GE(stats.universe_seconds, 0.0);
  EXPECT_GE(stats.increments_seconds, 0.0);
}

TEST_F(PlanningContextTest, TopEigenvaluesDescending) {
  const auto& top = context_->top_eigenvalues();
  ASSERT_FALSE(top.empty());
  for (std::size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_GE(top[i], top[i + 1] - 1e-9);
  }
}

}  // namespace
}  // namespace ctbus::core
