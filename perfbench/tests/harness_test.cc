// Self-tests of the benchmark harness: percentile rule, span self-time
// arithmetic, the answer oracle and answer accounting, and request-list
// determinism.
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "harness.h"
#include "net/frame.h"
#include "oracle.h"
#include "service/snapshot_store.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> hundred = OneTo(100);
  EXPECT_EQ(Percentile(hundred, 50), 50);
  EXPECT_EQ(Percentile(hundred, 90), 90);
  EXPECT_EQ(Percentile(hundred, 95), 95);
  EXPECT_EQ(Percentile(hundred, 100), 100);
  EXPECT_EQ(Percentile(hundred, 0.1), 1);
  EXPECT_EQ(Median(OneTo(5)), 3);
  EXPECT_EQ(Median(OneTo(4)), 2);  // rank ceil(2) = 2: a sample, not a mean
  EXPECT_EQ(Percentile(OneTo(10), 95), 10);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(200, 95));
  EXPECT_FALSE(PercentileSupported(199, 95));
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(95), 200u);
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(SpanTest, CoveredSecondsCountsOverlapOnce) {
  EXPECT_DOUBLE_EQ(CoveredSeconds({{1, 4}, {3, 6}, {8, 12}}, 0, 10), 7.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{1, 2}, {1, 2}}, 0, 10), 1.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{-5, 20}}, 0, 10), 10.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{11, 12}}, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({}, 0, 10), 0.0);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  SpanLog log;
  const std::uint64_t root = log.Add("root", 0, 10, 0, 1);
  const std::uint64_t a = log.Add("a", 1, 4, root, 1);
  log.Add("b", 3, 6, root, 1);
  log.Add("c", 8, 12, root, 1);  // runs past its parent: clipped
  log.Add("grandchild", 2, 3, a, 1);
  log.Add("other-trace", 0, 5, 0, 2);
  const std::vector<SpanRecord> spans = log.Spans();
  const std::vector<double> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_DOUBLE_EQ(self[0], 3.0);  // 10 - |[1,6] u [8,10]|
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // 3 - grandchild's 1
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 5.0);
}

TEST(SpanTest, ScopedSpanRecordsOnce) {
  SpanLog log;
  {
    ScopedSpan span(&log, "outer");
    EXPECT_EQ(span.End(), 1u);
    EXPECT_EQ(span.End(), 1u);
  }
  ASSERT_EQ(log.Spans().size(), 1u);
  EXPECT_GE(log.Spans()[0].duration(), 0.0);
}

TEST(RequestTest, SameSeedGivesByteIdenticalRequests) {
  const std::string a = SerializeDraws(MakeDraws(Mix::kInteractive, 7, 600));
  const std::string b = SerializeDraws(MakeDraws(Mix::kInteractive, 7, 600));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, SerializeDraws(MakeDraws(Mix::kInteractive, 8, 600)));
  EXPECT_EQ(SerializeDraws(MakeDraws(Mix::kOnline, 3, 100)),
            SerializeDraws(MakeDraws(Mix::kOnline, 3, 100)));
}

TEST(RequestTest, EveryBlockHoldsTheWholeMix) {
  // 27 draws = every (k, w) cell twice as ETA-Pre and once as vk-TSP.
  const std::vector<Draw> draws = MakeDraws(Mix::kInteractive, 11, 27 * 20);
  for (std::size_t start = 0; start < draws.size(); start += 27) {
    std::map<std::tuple<int, double, int>, int> count;
    for (std::size_t i = start; i < start + 27; ++i) {
      const Draw& draw = draws[i];
      EXPECT_TRUE(draw.k == 10 || draw.k == 20 || draw.k == 30);
      EXPECT_TRUE(draw.w == 0.3 || draw.w == 0.5 || draw.w == 0.7);
      ++count[{draw.k, draw.w, static_cast<int>(draw.mode)}];
    }
    ASSERT_EQ(count.size(), 18u);
    for (const auto& [cell, n] : count) {
      EXPECT_EQ(n, std::get<2>(cell) == static_cast<int>(Mode::kEtaPre) ? 2 : 1);
    }
  }
  // Seeds differ in order only.
  std::vector<Draw> other = MakeDraws(Mix::kInteractive, 12, 27);
  EXPECT_NE(SerializeDraws(other), SerializeDraws(MakeDraws(Mix::kInteractive, 11, 27)));
  for (const Draw& draw : MakeDraws(Mix::kOnline, 11, 100)) {
    EXPECT_EQ(draw.mode, Mode::kOnline);
  }
}

TEST(OracleTest, CatchesCorruptedAnswers) {
  const ctbus::gen::Dataset midtown = ctbus::gen::MakeMidtown();
  ctbus::core::CtBusOptions options;
  options.k = 6;
  options.tau = 900.0;
  options.seed_count = 100;
  const ctbus::core::Precompute precompute =
      ctbus::core::PlanningContext::RunPrecompute(midtown.road,
                                                  midtown.transit, options);
  Oracle oracle(midtown.road, midtown.transit, precompute, 1);
  oracle.Prepare(options, {{6, 0.5, ctbus::core::Planner::kEtaPre}});
  const ctbus::core::PlanResult& plan =
      oracle.Plan(6, 0.5, ctbus::core::Planner::kEtaPre);
  ASSERT_TRUE(plan.found);

  ctbus::service::ServiceResult served;
  served.plan = plan;
  served.stats.snapshot_version = 1;
  const ctbus::net::ResponseFrame good =
      ctbus::net::MakeOkResponse(5, served);
  const auto check = [&](const ctbus::net::ResponseFrame& response,
                         double w, ctbus::core::Planner planner) {
    return oracle.Check(true, "", response, 6, w, planner);
  };
  const Verdict right = check(good, 0.5, ctbus::core::Planner::kEtaPre);
  EXPECT_TRUE(right.ok) << right.why;
  EXPECT_FALSE(right.wrong);

  // Every corruption of an OK answer is wrong, not merely failed.
  ctbus::net::ResponseFrame bad = good;
  bad.objective = std::nextafter(bad.objective, 1e9);
  EXPECT_TRUE(check(bad, 0.5, ctbus::core::Planner::kEtaPre).wrong);
  bad = good;
  bad.edges.back() += 1;
  EXPECT_TRUE(check(bad, 0.5, ctbus::core::Planner::kEtaPre).wrong);
  bad = good;
  bad.snapshot_version = 2;
  EXPECT_TRUE(check(bad, 0.5, ctbus::core::Planner::kEtaPre).wrong);
  // A refusal or a lost answer fails without being wrong.
  bad = good;
  bad.status = ctbus::net::ResponseStatus::kRejectedOverload;
  Verdict refused = check(bad, 0.5, ctbus::core::Planner::kEtaPre);
  EXPECT_FALSE(refused.ok);
  EXPECT_FALSE(refused.wrong);
  refused = oracle.Check(false, "reset", good, 6, 0.5,
                         ctbus::core::Planner::kEtaPre);
  EXPECT_FALSE(refused.ok);
  EXPECT_FALSE(refused.wrong);
  EXPECT_EQ(refused.why, "reset");
  // A different cell's expectation never matches this answer.
  oracle.Prepare(options, {{6, 0.9, ctbus::core::Planner::kVkTsp}});
  EXPECT_TRUE(check(good, 0.9, ctbus::core::Planner::kVkTsp).wrong);
}

ctbus::core::PlannableEdge Edge(int u, int v) {
  ctbus::core::PlannableEdge edge;
  edge.u = u;
  edge.v = v;
  return edge;
}

TEST(OracleTest, StructuralCheck) {
  // Five stops; edges 0:(0,1) 1:(1,2) 2:(2,0) 3:(2,3) 4:(3,4).
  const ctbus::core::EdgeUniverse universe =
      ctbus::core::EdgeUniverse::FromEdges(
          {Edge(0, 1), Edge(1, 2), Edge(2, 0), Edge(2, 3), Edge(3, 4)}, 5);
  std::string why;
  EXPECT_TRUE(StructurallyValid(true, {0, 1}, {0, 1, 2}, 2, universe, &why))
      << why;
  EXPECT_TRUE(StructurallyValid(true, {1, 0}, {2, 1, 0}, 2, universe, &why))
      << why;
  EXPECT_FALSE(StructurallyValid(false, {0}, {0, 1}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {}, {0}, 2, universe, &why));
  EXPECT_FALSE(
      StructurallyValid(true, {0, 1, 3}, {0, 1, 2, 3}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {0, 1}, {0, 1}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {0, 1}, {0, 1, 5}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {0, 0}, {0, 1, 0}, 2, universe, &why));
  // Edges that exist but do not join consecutive stops, in any order.
  EXPECT_FALSE(StructurallyValid(true, {4, 3}, {0, 1, 2}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {1, 0}, {0, 1, 2}, 2, universe, &why));
  EXPECT_NE(why.find("does not join"), std::string::npos) << why;
  // Edge ids the universe does not have.
  EXPECT_FALSE(StructurallyValid(true, {0, 9}, {0, 1, 2}, 2, universe, &why));
  EXPECT_FALSE(StructurallyValid(true, {-1, 1}, {0, 1, 2}, 2, universe, &why));
  // Loop closure onto the first stop is a route; a shorter one is not.
  EXPECT_TRUE(
      StructurallyValid(true, {0, 1, 2}, {0, 1, 2, 0}, 3, universe, &why))
      << why;
  EXPECT_FALSE(
      StructurallyValid(true, {0, 1, 2}, {0, 1, 1, 0}, 3, universe, &why));
}

TEST(OracleTest, CorruptedDerivedAnswerFailsTheRun) {
  // A real derived answer: plan on midtown, commit the route, derive the
  // precompute of the new version from the old one, plan again.
  const ctbus::gen::Dataset midtown = ctbus::gen::MakeMidtown();
  ctbus::core::CtBusOptions options;
  options.k = 6;
  options.tau = 900.0;
  options.seed_count = 100;
  const ctbus::core::Precompute base =
      ctbus::core::PlanningContext::RunPrecompute(midtown.road,
                                                  midtown.transit, options);
  const ctbus::core::PlanResult first = ReferencePlan(
      midtown.road, midtown.transit, options, base,
      ctbus::core::Planner::kEtaPre);
  ASSERT_TRUE(first.found);
  ctbus::service::SnapshotStore store(midtown.road, midtown.transit);
  const std::uint64_t version = store.CommitRoute(first, base.universe);
  const auto next = store.Get(version);
  const ctbus::core::Precompute derived =
      ctbus::core::PlanningContext::DerivePrecompute(
          *next->road, *next->transit, options, base,
          *store.DeltaBetween(1, version));
  ctbus::service::ServiceResult served;
  served.plan = ReferencePlan(*next->road, *next->transit, options, derived,
                              ctbus::core::Planner::kEtaPre);
  served.stats.snapshot_version = version;
  const ctbus::net::ResponseFrame good =
      ctbus::net::MakeOkResponse(1, served);
  ASSERT_TRUE(good.found);

  RunResult result;
  const auto check = [&](const ctbus::net::ResponseFrame& response) {
    const Verdict verdict =
        CheckDerived(true, "", response, version, 6, derived.universe);
    Tally(&result, verdict, ctbus::net::ResponseChecksum(response));
    return verdict;
  };
  EXPECT_TRUE(check(good).ok);
  EXPECT_TRUE(result.correct);

  // Lost or refused answers fail the request, not the run.
  Tally(&result, CheckDerived(false, "timeout", good, version, 6,
                              derived.universe),
        0);
  ctbus::net::ResponseFrame bad = good;
  bad.status = ctbus::net::ResponseStatus::kRejectedOverload;
  EXPECT_FALSE(check(bad).wrong);
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 2u);

  // An OK answer that breaks the structure is wrong and fails the run.
  bad = good;
  for (int e = 0; e < derived.universe.num_edges(); ++e) {
    const auto& edge = derived.universe.edge(e);
    if (edge.u != good.stops[0] && edge.v != good.stops[0]) {
      bad.edges.front() = e;  // exists, but does not start at stop 0
      break;
    }
  }
  ASSERT_NE(bad.edges.front(), good.edges.front());
  EXPECT_TRUE(check(bad).wrong);
  EXPECT_FALSE(result.correct);
  for (const auto& corrupt : std::vector<ctbus::net::ResponseFrame (*)(
           ctbus::net::ResponseFrame)>{
           [](ctbus::net::ResponseFrame r) { r.snapshot_version = 1; return r; },
           [](ctbus::net::ResponseFrame r) { r.found = false; return r; },
           [](ctbus::net::ResponseFrame r) {
             r.stops.push_back(r.stops.front());
             return r;
           }}) {
    EXPECT_TRUE(check(corrupt(good)).wrong);
  }
  EXPECT_EQ(result.wrong, 4u);
  EXPECT_EQ(result.attempted, 7u);
}

}  // namespace
}  // namespace perfbench
