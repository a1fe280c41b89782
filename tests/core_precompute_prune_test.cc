// Candidate pruning of the Delta(e) precompute loop (ISSUE 8): the
// Lemma 3/4-style screen must never change what survivors compute to —
// surviving estimates are bit-identical to an unpruned run at any thread
// count, pruned entries store a bound that cannot displace the top
// estimates, and the end-to-end ETA-Pre planner produces the same routes
// and objectives with pruning on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "connectivity/edge_increment.h"
#include "core/eta.h"
#include "core/planner.h"
#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/snapshot_store.h"

namespace ctbus::core {
namespace {

CtBusOptions PruneOptions(bool prune) {
  CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  options.prune_candidates = prune;
  options.prune_keep_rank = 24;
  return options;
}

TEST(PrecomputePruneTest, SurvivorsBitIdenticalAndPrunedFlagged) {
  const gen::Dataset d = gen::MakeChicagoLike(0.25);
  const Precompute off =
      PlanningContext::RunPrecompute(d.road, d.transit, PruneOptions(false));
  const Precompute on =
      PlanningContext::RunPrecompute(d.road, d.transit, PruneOptions(true));

  ASSERT_EQ(on.increments.size(), off.increments.size());
  EXPECT_TRUE(off.pruned.empty());
  EXPECT_EQ(off.stats.num_increments_pruned, 0);
  EXPECT_GT(on.stats.num_increments_pruned, 0);
  EXPECT_EQ(on.stats.num_increments_estimated + on.stats.num_increments_pruned,
            on.universe.num_new_edges());

  int pruned = 0;
  for (int e = 0; e < on.universe.num_edges(); ++e) {
    EXPECT_FALSE(off.IsPruned(e));
    if (!on.universe.edge(e).is_new) continue;
    if (on.IsPruned(e)) {
      ++pruned;
    } else {
      // The screen must not perturb surviving estimates in any way: same
      // scratch adjacency, same pinned probes, same FP sequence.
      EXPECT_EQ(on.increments[e], off.increments[e]) << "edge " << e;
    }
  }
  EXPECT_EQ(pruned, on.stats.num_increments_pruned);
}

TEST(PrecomputePruneTest, PrunedBoundsCannotDisplaceTopEstimates) {
  const gen::Dataset d = gen::MakeChicagoLike(0.25);
  const CtBusOptions options = PruneOptions(true);
  const Precompute on =
      PlanningContext::RunPrecompute(d.road, d.transit, options);

  std::vector<double> survivors;
  std::vector<double> bounds;
  for (int e = 0; e < on.universe.num_edges(); ++e) {
    if (!on.universe.edge(e).is_new) continue;
    (on.IsPruned(e) ? bounds : survivors).push_back(on.increments[e]);
  }
  ASSERT_GE(static_cast<int>(survivors.size()), options.prune_keep_rank);
  ASSERT_FALSE(bounds.empty());
  std::sort(survivors.rbegin(), survivors.rend());
  // Every pruned entry stores a value at or below the keep_rank-th largest
  // surviving estimate, so the ranked list's head is made of estimates
  // only — pruning can shorten the tail but never promote a bound.
  const double cutoff = survivors[options.prune_keep_rank - 1];
  for (double b : bounds) EXPECT_LE(b, cutoff);
}

TEST(PrecomputePruneTest, BitIdenticalAcrossThreadCountsWithPruning) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = PruneOptions(true);
  options.precompute_threads = 1;
  const Precompute serial =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  for (int threads : {2, 8}) {
    options.precompute_threads = threads;
    const Precompute parallel =
        PlanningContext::RunPrecompute(d.road, d.transit, options);
    EXPECT_EQ(parallel.increments, serial.increments) << threads;
    EXPECT_EQ(parallel.pruned, serial.pruned) << threads;
    EXPECT_EQ(parallel.stats.num_increments_pruned,
              serial.stats.num_increments_pruned);
    EXPECT_EQ(parallel.stats.num_increments_estimated,
              serial.stats.num_increments_estimated);
  }
}

TEST(PrecomputePruneTest, PerturbationPathIgnoresPruneFlag) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = PruneOptions(true);
  options.use_perturbation_precompute = true;
  const Precompute pre =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  EXPECT_TRUE(pre.pruned.empty());
  EXPECT_EQ(pre.stats.num_increments_pruned, 0);
  options.prune_candidates = false;
  const Precompute plain =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  EXPECT_EQ(pre.increments, plain.increments);
}

TEST(PrecomputePruneTest, GenerousKeepRankPrunesNothing) {
  const gen::Dataset d = gen::MakeMidtown();
  CtBusOptions options = PruneOptions(true);
  options.prune_keep_rank = 1 << 20;  // covers every candidate
  const Precompute on =
      PlanningContext::RunPrecompute(d.road, d.transit, options);
  EXPECT_EQ(on.stats.num_increments_pruned, 0);
  const Precompute off =
      PlanningContext::RunPrecompute(d.road, d.transit, PruneOptions(false));
  EXPECT_EQ(on.increments, off.increments);
}

TEST(PrecomputePruneTest, DeriveCarriesPrunedFlagsAcrossCommit) {
  gen::Dataset d = gen::MakeMidtown();
  service::SnapshotStore store(std::move(d.road), std::move(d.transit));
  CtBusOptions options = PruneOptions(true);
  // Midtown only has a few dozen candidates; shrink the keep rank so a
  // meaningful share of them is actually pruned and carried.
  options.prune_keep_rank = 6;

  const service::SnapshotPtr v1 = store.Get(1);
  const Precompute pre1 =
      PlanningContext::RunPrecompute(*v1->road, *v1->transit, options);
  const PlanningContext ctx = PlanningContext::BuildWithPrecompute(
      *v1->road, *v1->transit, options,
      std::make_shared<const Precompute>(pre1));
  const PlanResult plan = RunEta(&ctx, SearchMode::kPrecomputed);
  ASSERT_TRUE(plan.found);
  const std::uint64_t v2 = store.CommitRoute(plan, pre1.universe, 1);

  const service::SnapshotPtr snap2 = store.Get(v2);
  const auto delta = store.DeltaBetween(1, v2);
  ASSERT_TRUE(delta.has_value());
  const Precompute derived = PlanningContext::DerivePrecompute(
      *snap2->road, *snap2->transit, options, pre1, *delta);

  EXPECT_TRUE(derived.stats.derived);
  EXPECT_EQ(static_cast<int>(derived.pruned.size()),
            derived.universe.num_edges());
  EXPECT_EQ(derived.stats.num_increments_carried +
                derived.stats.num_increments_estimated +
                derived.stats.num_increments_pruned,
            derived.universe.num_new_edges());

  // Carried candidates (no endpoint touched by the commit) keep the
  // donor's pruned flag, and its value rebased to the new base trace.
  std::vector<char> touched(snap2->transit->num_stops(), 0);
  for (int s : delta->touched_stops) touched[s] = 1;
  int carried_pruned = 0;
  for (int e = 0; e < derived.universe.num_edges(); ++e) {
    const PlannableEdge& edge = derived.universe.edge(e);
    if (!edge.is_new || touched[edge.u] || touched[edge.v]) continue;
    // Midtown universes are stable enough that (u, v) resolves in both
    // snapshots; find the donor edge by endpoints.
    for (int p = 0; p < pre1.universe.num_edges(); ++p) {
      const PlannableEdge& donor = pre1.universe.edge(p);
      if (donor.is_new && donor.u == edge.u && donor.v == edge.v) {
        EXPECT_EQ(derived.increments[e],
                  connectivity::RebaseIncrement(pre1.increments[p],
                                                pre1.base_trace,
                                                derived.base_trace));
        EXPECT_EQ(derived.IsPruned(e), pre1.IsPruned(p));
        carried_pruned += derived.IsPruned(e) ? 1 : 0;
        break;
      }
    }
  }
  EXPECT_GT(carried_pruned, 0);
}

TEST(PrecomputePruneTest, PlannerRoutesAndObjectivesUnchangedByPruning) {
  // The acceptance gate: with pruning on, the end-to-end ETA-Pre planner
  // must produce the same routes with the same objectives on the fixture
  // datasets — pruned candidates are exactly the ones the search would
  // never have promoted.
  for (int fixture = 0; fixture < 2; ++fixture) {
    const gen::Dataset d =
        fixture == 0 ? gen::MakeMidtown() : gen::MakeChicagoLike(0.4);
    // The contract is calibrated for the default keep rank: the
    // precompute-level tests above shrink it to force heavy pruning, but
    // route-for-route equality is promised at the shipped setting (a
    // keep rank of a couple dozen can reroute through a pruned edge).
    CtBusOptions off_options = PruneOptions(false);
    CtBusOptions on_options = PruneOptions(true);
    off_options.prune_keep_rank = on_options.prune_keep_rank =
        CtBusOptions().prune_keep_rank;
    std::vector<PlanResult> base;
    std::vector<PlanResult> pruned;
    {
      CtBusPlanner planner(d.road, d.transit, off_options);
      base = planner.PlanMultipleRoutes(2, Planner::kEtaPre);
    }
    {
      CtBusPlanner planner(d.road, d.transit, on_options);
      pruned = planner.PlanMultipleRoutes(2, Planner::kEtaPre);
      // Not vacuous on the city fixture: the screen must actually have
      // skipped candidates while leaving the plans untouched.
      if (fixture == 1) {
        EXPECT_GT(planner.context().precompute_stats().num_increments_pruned,
                  0);
      }
    }
    ASSERT_EQ(base.size(), pruned.size()) << "fixture " << fixture;
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_EQ(base[r].found, pruned[r].found);
      EXPECT_EQ(base[r].objective, pruned[r].objective);
      EXPECT_EQ(base[r].demand, pruned[r].demand);
      EXPECT_EQ(base[r].connectivity_increment,
                pruned[r].connectivity_increment);
      EXPECT_EQ(base[r].path.stops(), pruned[r].path.stops());
    }
  }
}

}  // namespace
}  // namespace ctbus::core
