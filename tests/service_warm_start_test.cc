// Warm-start correctness: a precompute derived across snapshot versions
// (SnapshotStore lineage + PlanningContext::DerivePrecompute) must match a
// from-scratch RunPrecompute on the new snapshot — bit-identically for the
// universe and recomputed Delta(e), within second-order error for carried
// ones, which are exactly the donor's values rebased to the new base trace
// (see docs/PRECOMPUTE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "connectivity/edge_increment.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"
#include "service/snapshot_store.h"

namespace ctbus::service {
namespace {

/// Carried increments differ from from-scratch by the
/// interaction between a candidate and the committed edges, which shrinks
/// with network size. Midtown is the worst case the contract must bound —
/// two stacked k=6 commits perturb a ~50-edge network, giving carry errors
/// up to ~40% of the largest increment (the chicago-scale bench measures
/// ~12% worst-case after a commit; see bench_precompute_scaling). The
/// tolerance is therefore expressed as a fraction of the from-scratch
/// increment scale.
constexpr double kCarryToleranceFraction = 0.5;

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

core::PlanResult PlanAt(const NetworkSnapshot& snapshot,
                        const core::CtBusOptions& options,
                        std::shared_ptr<const core::Precompute> precompute) {
  const core::PlanningContext context =
      core::PlanningContext::BuildWithPrecompute(
          *snapshot.road, *snapshot.transit, options, std::move(precompute));
  return core::RunEta(&context, core::SearchMode::kPrecomputed);
}

void ExpectUniversesIdentical(const core::EdgeUniverse& actual,
                              const core::EdgeUniverse& expected,
                              int num_stops) {
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  ASSERT_EQ(actual.num_new_edges(), expected.num_new_edges());
  for (int e = 0; e < expected.num_edges(); ++e) {
    const core::PlannableEdge& ea = actual.edge(e);
    const core::PlannableEdge& eb = expected.edge(e);
    EXPECT_EQ(ea.u, eb.u) << "edge " << e;
    EXPECT_EQ(ea.v, eb.v) << "edge " << e;
    EXPECT_EQ(ea.is_new, eb.is_new) << "edge " << e;
    EXPECT_EQ(ea.length, eb.length) << "edge " << e;
    EXPECT_EQ(ea.straight_distance, eb.straight_distance) << "edge " << e;
    EXPECT_EQ(ea.road_edges, eb.road_edges) << "edge " << e;
    EXPECT_EQ(ea.demand, eb.demand) << "edge " << e;
    EXPECT_EQ(ea.transit_edge, eb.transit_edge) << "edge " << e;
  }
  for (int s = 0; s < num_stops; ++s) {
    EXPECT_EQ(actual.IncidentEdges(s), expected.IncidentEdges(s))
        << "stop " << s;
  }
}

/// Derived vs from-scratch increments: exact where the contract is exact,
/// within a fraction of the increment scale for carried values.
void ExpectIncrementsMatch(const core::Precompute& derived,
                           const core::Precompute& scratch,
                           const core::SnapshotDelta& delta) {
  ASSERT_EQ(derived.increments.size(), scratch.increments.size());
  const double carry_tolerance =
      kCarryToleranceFraction *
      *std::max_element(scratch.increments.begin(), scratch.increments.end());
  std::vector<char> touched;
  if (!delta.touched_stops.empty()) {
    touched.assign(1 + *std::max_element(delta.touched_stops.begin(),
                                         delta.touched_stops.end()),
                   0);
    for (int s : delta.touched_stops) touched[s] = 1;
  }
  const auto stop_touched = [&](int s) {
    return s < static_cast<int>(touched.size()) && touched[s];
  };
  for (int e = 0; e < derived.universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = derived.universe.edge(e);
    if (!edge.is_new || stop_touched(edge.u) || stop_touched(edge.v)) {
      // Bit-identical: touched candidates are recomputed with the same
      // kernel and base trace.
      EXPECT_EQ(derived.increments[e], scratch.increments[e]) << "edge " << e;
    } else {
      EXPECT_NEAR(derived.increments[e], scratch.increments[e],
                  carry_tolerance)
          << "edge " << e;
    }
  }
}

struct Committed {
  SnapshotPtr snapshot;  // the new version
  core::SnapshotDelta delta_from_parent;
};

/// Plans a route against `version`'s snapshot with `precompute` and commits
/// it, returning the new snapshot and the recorded delta.
Committed PlanAndCommit(SnapshotStore* store, std::uint64_t version,
                        const core::CtBusOptions& options,
                        const core::Precompute& precompute) {
  const SnapshotPtr base = store->Get(version);
  EXPECT_NE(base, nullptr);
  const core::PlanResult plan = PlanAt(
      *base, options,
      std::make_shared<const core::Precompute>(precompute));
  EXPECT_TRUE(plan.found);
  const std::uint64_t next =
      store->CommitRoute(plan, precompute.universe, version);
  Committed committed;
  committed.snapshot = store->Get(next);
  const auto delta = store->DeltaBetween(version, next);
  EXPECT_TRUE(delta.has_value());
  committed.delta_from_parent = *delta;
  return committed;
}

TEST(SnapshotDeltaTest, CommitRecordsLineageAndEdgeDiff) {
  gen::Dataset d = gen::MakeMidtown();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();
  const core::Precompute pre1 = core::PlanningContext::RunPrecompute(
      *store.Get(1)->road, *store.Get(1)->transit, options);

  EXPECT_EQ(store.ParentVersion(1), 0u);
  const auto empty = store.DeltaBetween(1, 1);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->added_stop_pairs.empty());
  EXPECT_TRUE(empty->touched_stops.empty());

  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);
  ASSERT_NE(v2.snapshot, nullptr);
  EXPECT_EQ(v2.snapshot->version, 2u);
  EXPECT_EQ(v2.snapshot->parent_version, 1u);
  EXPECT_EQ(store.ParentVersion(2), 1u);
  EXPECT_EQ(store.Versions(), (std::vector<std::uint64_t>{1, 2}));

  const core::SnapshotDelta& delta = v2.delta_from_parent;
  ASSERT_FALSE(delta.added_stop_pairs.empty());
  ASSERT_FALSE(delta.touched_stops.empty());
  ASSERT_FALSE(delta.changed_road_edges.empty());
  EXPECT_TRUE(std::is_sorted(delta.touched_stops.begin(),
                             delta.touched_stops.end()));
  EXPECT_TRUE(std::is_sorted(delta.changed_road_edges.begin(),
                             delta.changed_road_edges.end()));
  const SnapshotPtr v1 = store.Get(1);
  for (const auto& [u, v] : delta.added_stop_pairs) {
    EXPECT_FALSE(v1->transit->ActiveEdgeBetween(u, v).has_value());
    EXPECT_TRUE(v2.snapshot->transit->ActiveEdgeBetween(u, v).has_value());
  }

  // Walking against the tree direction is not a valid warm-start path.
  EXPECT_FALSE(store.DeltaBetween(2, 1).has_value());
  EXPECT_FALSE(store.DeltaBetween(99, 2).has_value());
}

// A single-instance parameterized suite: it once ran a second Delta(e)
// path, and keeps its instance name so the test ids stay stable.
class WarmStartTest : public ::testing::TestWithParam<bool> {};

TEST_P(WarmStartTest, DerivedMatchesFromScratchAfterOneCommit) {
  gen::Dataset d = gen::MakeMidtown();
  const int num_stops = d.transit.num_stops();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();

  const SnapshotPtr v1 = store.Get(1);
  const core::Precompute pre1 =
      core::PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);

  const core::Precompute scratch = core::PlanningContext::RunPrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options);
  const core::Precompute derived = core::PlanningContext::DerivePrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options, pre1,
      v2.delta_from_parent);

  ExpectUniversesIdentical(derived.universe, scratch.universe, num_stops);
  ExpectIncrementsMatch(derived, scratch, v2.delta_from_parent);

  EXPECT_TRUE(derived.stats.derived);
  EXPECT_FALSE(scratch.stats.derived);
  EXPECT_EQ(derived.stats.num_increments_recomputed +
                derived.stats.num_increments_carried,
            derived.universe.num_new_edges());
  EXPECT_GT(derived.stats.num_increments_carried, 0);
  EXPECT_LT(derived.stats.num_increments_recomputed,
            derived.universe.num_new_edges());
}

TEST(WarmStartRebaseTest, CarriedValuesAreTheRebasedDonorValues) {
  // The quadrature path's exact contract: a recomputed candidate matches
  // from-scratch bit for bit, and a carried one holds exactly the donor's
  // value rebased from the donor's base trace to the new one.
  gen::Dataset d = gen::MakeMidtown();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();
  const SnapshotPtr v1 = store.Get(1);
  const core::Precompute pre1 =
      core::PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);
  const core::Precompute scratch = core::PlanningContext::RunPrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options);
  const core::Precompute derived = core::PlanningContext::DerivePrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options, pre1,
      v2.delta_from_parent);

  EXPECT_EQ(derived.base_trace, scratch.base_trace);
  EXPECT_NE(derived.base_trace, pre1.base_trace);
  std::map<std::pair<int, int>, double> donor;
  for (int e = 0; e < pre1.universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = pre1.universe.edge(e);
    if (edge.is_new) donor[{edge.u, edge.v}] = pre1.increments[e];
  }
  std::vector<char> touched(v2.snapshot->transit->num_stops(), 0);
  for (int s : v2.delta_from_parent.touched_stops) touched[s] = 1;
  int carried = 0;
  int recomputed = 0;
  for (int e = 0; e < derived.universe.num_edges(); ++e) {
    const core::PlannableEdge& edge = derived.universe.edge(e);
    if (!edge.is_new) continue;
    const auto it = donor.find({edge.u, edge.v});
    if (touched[edge.u] || touched[edge.v] || it == donor.end()) {
      EXPECT_EQ(derived.increments[e], scratch.increments[e]) << "edge " << e;
      ++recomputed;
    } else {
      EXPECT_EQ(derived.increments[e],
                connectivity::RebaseIncrement(it->second, pre1.base_trace,
                                              derived.base_trace))
          << "edge " << e;
      ++carried;
    }
  }
  EXPECT_EQ(carried, derived.stats.num_increments_carried);
  EXPECT_EQ(recomputed, derived.stats.num_increments_recomputed);
  EXPECT_GT(carried, 0);
  EXPECT_GT(recomputed, 0);
}

TEST_P(WarmStartTest, StackedCommitsDeriveDirectlyAndThroughTheChain) {
  gen::Dataset d = gen::MakeMidtown();
  const int num_stops = d.transit.num_stops();
  SnapshotStore store(std::move(d.road), std::move(d.transit));
  const core::CtBusOptions options = FastOptions();

  const SnapshotPtr v1 = store.Get(1);
  const core::Precompute pre1 =
      core::PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const Committed v2 = PlanAndCommit(&store, 1, options, pre1);
  const core::Precompute derived2 = core::PlanningContext::DerivePrecompute(
      *v2.snapshot->road, *v2.snapshot->transit, options, pre1,
      v2.delta_from_parent);
  const Committed v3 = PlanAndCommit(&store, 2, options, derived2);
  ASSERT_EQ(v3.snapshot->version, 3u);

  const core::Precompute scratch3 = core::PlanningContext::RunPrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options);

  // Direct derivation from the grandparent uses the composed delta.
  const auto composed = store.DeltaBetween(1, 3);
  ASSERT_TRUE(composed.has_value());
  EXPECT_GE(composed->added_stop_pairs.size(),
            v2.delta_from_parent.added_stop_pairs.size());
  const core::Precompute direct = core::PlanningContext::DerivePrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options, pre1, *composed);
  ExpectUniversesIdentical(direct.universe, scratch3.universe, num_stops);
  ExpectIncrementsMatch(direct, scratch3, *composed);

  // Chained derivation: derive v3 from the already-derived v2 precompute.
  // Only candidates touched by the *second* commit are recomputed here
  // (edges touched solely by the first commit were recomputed at v2 and
  // are carried in this step), so exactness is judged against the v2->v3
  // delta, not the composed one.
  const core::Precompute chained = core::PlanningContext::DerivePrecompute(
      *v3.snapshot->road, *v3.snapshot->transit, options, derived2,
      v3.delta_from_parent);
  ExpectUniversesIdentical(chained.universe, scratch3.universe, num_stops);
  ExpectIncrementsMatch(chained, scratch3, v3.delta_from_parent);
}

INSTANTIATE_TEST_SUITE_P(BothEstimatorPaths, WarmStartTest,
                         ::testing::Values(false),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return "Stochastic";
                         });

TEST(ServiceWarmStartTest, CommitThenLatestPlanDerivesInsteadOfRecomputing) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();

  const ServiceResult first = service.Plan(request);
  ASSERT_TRUE(first.plan.found);
  EXPECT_FALSE(first.stats.precompute_cache_hit);
  EXPECT_FALSE(first.stats.precompute_derived);

  service.Commit(first);

  const ServiceResult second = service.Plan(request);  // latest is now v2
  EXPECT_EQ(second.stats.snapshot_version, 2u);
  EXPECT_FALSE(second.stats.precompute_cache_hit);
  EXPECT_TRUE(second.stats.precompute_derived);
  ASSERT_TRUE(second.plan.found);

  const ServiceResult third = service.Plan(request);  // v2 entry now hot
  EXPECT_TRUE(third.stats.precompute_cache_hit);
  EXPECT_FALSE(third.stats.precompute_derived);

  const auto stats = service.service_stats();
  EXPECT_EQ(stats.precomputes_from_scratch, 1u);
  EXPECT_EQ(stats.precomputes_derived, 1u);
}

TEST(ServiceWarmStartTest, DerivationsAnchorToTheScratchDonor) {
  // Stacked commits must not chain derivations when the from-scratch
  // donor is still resident: depth stays at 1 (anchored to v1's exact
  // precompute via the composed delta), bounding carry error.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();

  const ServiceResult r1 = service.Plan(request);
  EXPECT_EQ(r1.stats.precompute.derivation_depth, 0);
  service.Commit(r1);
  const ServiceResult r2 = service.Plan(request);
  ASSERT_TRUE(r2.stats.precompute_derived);
  EXPECT_EQ(r2.stats.precompute.derivation_depth, 1);
  service.Commit(r2);
  const ServiceResult r3 = service.Plan(request);
  ASSERT_TRUE(r3.stats.precompute_derived);
  EXPECT_EQ(r3.stats.precompute.derivation_depth, 1);  // v1 donor, not v2
  EXPECT_GT(r3.stats.precompute.num_increments_carried, 0);
}

TEST(ServiceWarmStartTest, DisabledWarmStartRecomputesFromScratch) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.warm_start_precompute = false;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();

  const ServiceResult first = service.Plan(request);
  ASSERT_TRUE(first.plan.found);
  service.Commit(first);
  const ServiceResult second = service.Plan(request);  // latest is now v2
  EXPECT_EQ(second.stats.snapshot_version, 2u);
  EXPECT_FALSE(second.stats.precompute_cache_hit);
  EXPECT_FALSE(second.stats.precompute_derived);
  ASSERT_TRUE(second.plan.found);

  const auto stats = service.service_stats();
  EXPECT_EQ(stats.precomputes_from_scratch, 2u);
  EXPECT_EQ(stats.precomputes_derived, 0u);
}

}  // namespace
}  // namespace ctbus::service
