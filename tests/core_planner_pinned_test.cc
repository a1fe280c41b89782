// Planner pins on the chicago preset at scale 0.5 with the perfbench
// request parameters (tau 500, Tn 3, sn 5000, default estimators): the
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
      {10, 0.3, {1345, 923, 932, 1806, 1807, 2099, 836, 828, 1131, 1132},
       3918, 0x1.06188ee3a9cb7p-2, 0x1.92696a2e6fde9p+19,
       0x1.408dbdf4e337p-5},
      {10, 0.7, {1346, 162, 163, 1723, 2346, 2353, 387, 294, 764, 767},
       3979, 0x1.fc33557b7791fp-2, 0x1.46a0d7f9bcbd7p+22,
       0x1.9d9dc8e4badep-6},
      {30, 0.3,
       {1345, 923, 932, 1806, 1807, 2099, 836, 828, 1131, 1132, 963}, 3969,
       0x1.b6031ed41e9dep-4, 0x1.04bc8ca54b083p+20, 0x1.4b2151e77593p-5},
      {30, 0.7,
       {2157, 603, 600, 1745, 2353, 387, 294, 764, 767, 1128, 1127}, 4410,
       0x1.8df93d7a57206p-3, 0x1.386a44ad038fap+22, 0x1.250c623e5e6fp-5},
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
      {10, 0.3, route, 3484, 0x1.0d5e7098fed06p-2, demand, increment},
      {10, 0.7, route, 3484, 0x1.d611d328283bfp-2, demand, increment},
      {30, 0.3, route, 3863, 0x1.a1446381bf474p-4, demand, increment},
      {30, 0.7, route, 3863, 0x1.69b6237e22afcp-3, demand, increment},
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
               {30, 0.5, {1393, 1395, 294}, 4, 0x1.084808a250deap-4,
                0x1.30970d7f48866p+21, 0x1.6c21616cb438p-8});
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
