// Planner pins on the chicago preset at scale 0.5 with the perfbench
// request parameters (tau 500, Tn 3, sn 5000, default estimators, the
// quadrature Delta(e) precompute): the
// route, iteration count and reported objective / demand / connectivity
// increment of ETA-Pre and vk-TSP over k in {10, 30} x w in {0.3, 0.7},
// plus one online ETA capped at four iterations. The doubles are hex-float
// literals, so any change to the search order, the bound decisions or the
// final re-estimate shows up as a failed bit comparison.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions PerfbenchOptions() {
  CtBusOptions options;
  options.k = 30;
  options.w = 0.5;
  options.tau = 500.0;
  options.max_turns = 3;
  options.seed_count = 5000;
  return options;
}

struct Pin {
  int k;
  double w;
  std::vector<int> edges;
  int iterations;
  double objective;
  double demand;
  double connectivity_increment;
};

class PlannerPinnedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_ = new gen::Dataset(gen::MakeChicagoLike(0.5));
    precompute_ = new std::shared_ptr<const Precompute>(
        std::make_shared<const Precompute>(PlanningContext::RunPrecompute(
            city_->road, city_->transit, PerfbenchOptions())));
  }
  static void TearDownTestSuite() {
    delete precompute_;
    delete city_;
  }

  static PlanningContext Context(const CtBusOptions& options) {
    return PlanningContext::BuildWithPrecompute(city_->road, city_->transit,
                                                options, *precompute_);
  }

  static PlanningContext Context(int k, double w) {
    CtBusOptions options = PerfbenchOptions();
    options.k = k;
    options.w = w;
    return Context(options);
  }

  static void ExpectPinned(const PlanResult& result, const Pin& pin) {
    SCOPED_TRACE(::testing::Message() << "k=" << pin.k << " w=" << pin.w);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.path.edges(), pin.edges);
    EXPECT_EQ(result.iterations, pin.iterations);
    EXPECT_EQ(result.objective, pin.objective);
    EXPECT_EQ(result.demand, pin.demand);
    EXPECT_EQ(result.connectivity_increment, pin.connectivity_increment);
  }

  static gen::Dataset* city_;
  static std::shared_ptr<const Precompute>* precompute_;
};

gen::Dataset* PlannerPinnedTest::city_ = nullptr;
std::shared_ptr<const Precompute>* PlannerPinnedTest::precompute_ = nullptr;

TEST_F(PlannerPinnedTest, UniverseSize) {
  EXPECT_EQ((*precompute_)->universe.num_edges(), 2355);
  EXPECT_EQ((*precompute_)->universe.num_new_edges(), 1930);
}

TEST_F(PlannerPinnedTest, EtaPre) {
  const std::vector<Pin> pins = {
      {10, 0.3, {1385, 1363, 1355, 910, 913, 1793, 1806, 1670, 1672, 1635},
       4038, 0x1.33153168c09b9p-1, 0x1.183307610655cp+21,
       0x1.5147f20cfe4ep-5},
      {10, 0.7, {594, 597, 272, 2130, 2131, 2318, 2248, 1395, 1393}, 4263,
       0x1.070f50282066bp-1, 0x1.193281cadaf86p+22, 0x1.a9a3b4b2a8bap-6},
      {30, 0.3,
       {1385, 1363, 1355, 910, 913, 1793, 1806, 1807, 475, 462, 862, 876,
        879, 1852},
       4224, 0x1.2e0e346bdb35bp-2, 0x1.2535bf994228ep+21,
       0x1.caa5712310d1p-5},
      {30, 0.7,
       {1395, 294, 764, 753, 959, 1999, 491, 490, 1836, 1807, 1806, 1793,
        913, 910, 1355},
       4525, 0x1.d5986a75186d6p-3, 0x1.2bead48fe6b9bp+22,
       0x1.37535c2eabe2p-5},
  };
  for (const Pin& pin : pins) {
    const PlanningContext ctx = Context(pin.k, pin.w);
    ExpectPinned(RunEta(&ctx, SearchMode::kPrecomputed), pin);
  }
}

TEST_F(PlannerPinnedTest, VkTsp) {
  // The route ignores w (the baseline searches at w = 1); only the
  // objective, rescored under the caller's w, differs across w.
  const std::vector<int> route = {1025, 695, 686, 1395, 2248, 2318, 2344,
                                  2174};
  const double demand = 0x1.3fb321fb7a519p+22;
  const double increment = 0x1.ca30b2a0814p-7;
  const std::vector<Pin> pins = {
      {10, 0.3, route, 3484, 0x1.6f0d8ce3fcb8fp-2, demand, increment},
      {10, 0.7, route, 3484, 0x1.ffef286cde31ep-2, demand, increment},
      {30, 0.3, route, 3863, 0x1.1576031c54dabp-3, demand, increment},
      {30, 0.7, route, 3863, 0x1.87357d379e108p-3, demand, increment},
  };
  for (const Pin& pin : pins) {
    const PlanningContext ctx = Context(pin.k, pin.w);
    ExpectPinned(RunVkTsp(&ctx), pin);
  }
}

TEST_F(PlannerPinnedTest, OnlineEtaCappedAtFourIterations) {
  CtBusOptions options = PerfbenchOptions();
  options.max_iterations = 4;
  const PlanningContext ctx = Context(options);
  ExpectPinned(RunEta(&ctx, SearchMode::kOnline),
               {30, 0.5, {1393, 1390, 1368}, 4, 0x1.c6e6add437c24p-4,
                0x1.0591505fdc0ecp+21, 0x1.35f2e0feafb6p-6});
}

TEST_F(PlannerPinnedTest, VkTspSiblingMatchesFreshlyBuiltContext) {
  // RunVkTsp derives its w = 1, new-edges-only sibling from the caller's
  // context; a sibling built from scratch over the same precompute must
  // give the same answer bit for bit.
  for (const int k : {10, 30}) {
    for (const double w : {0.3, 0.7}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " w=" << w);
      const PlanningContext ctx = Context(k, w);
      const PlanResult derived = RunVkTsp(&ctx);

      CtBusOptions options = ctx.options();
      options.w = 1.0;
      options.new_edges_only = true;
      const PlanningContext sibling = Context(options);
      PlanResult fresh = RunEta(&sibling, SearchMode::kPrecomputed);
      ASSERT_TRUE(fresh.found);
      fresh.objective =
          ctx.Objective(fresh.demand, fresh.connectivity_increment);

      ASSERT_TRUE(derived.found);
      EXPECT_EQ(derived.path.edges(), fresh.path.edges());
      EXPECT_EQ(derived.path.stops(), fresh.path.stops());
      EXPECT_EQ(derived.iterations, fresh.iterations);
      EXPECT_EQ(derived.objective, fresh.objective);
      EXPECT_EQ(derived.demand, fresh.demand);
      EXPECT_EQ(derived.connectivity_increment,
                fresh.connectivity_increment);
    }
  }
}

TEST_F(PlannerPinnedTest, PrecomputedRunsSkipTheEigenSolve) {
  // The Lemma 4 eigenvalues feed only online ETA's bound; the context
  // computes them on first use, so ETA-Pre and vk-TSP leave the context's
  // footprint exactly as built, and the first online search grows it.
  const PlanningContext ctx = Context(30, 0.5);
  const std::size_t built = ctx.ApproxBytes();
  RunEta(&ctx, SearchMode::kPrecomputed);
  EXPECT_EQ(ctx.ApproxBytes(), built);
  RunVkTsp(&ctx);
  EXPECT_EQ(ctx.ApproxBytes(), built);

  CtBusOptions options = PerfbenchOptions();
  options.max_iterations = 1;
  const PlanningContext online = Context(options);
  const std::size_t online_built = online.ApproxBytes();
  RunEta(&online, SearchMode::kOnline);
  EXPECT_GT(online.ApproxBytes(), online_built);
}

}  // namespace
}  // namespace ctbus::core
