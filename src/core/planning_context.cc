#include "core/planning_context.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "connectivity/bounds.h"
#include "connectivity/candidate_pruning.h"
#include "connectivity/edge_increment.h"
#include "connectivity/perturbation.h"
#include "core/parallel_for.h"
#include "core/timing.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"

namespace ctbus::core {

namespace {

/// The precompute's one stochastic estimate: tr e^A of the base network,
/// through the estimator options.precompute_estimator pins.
double EstimateBaseTrace(const linalg::SymmetricSparseMatrix& adjacency,
                         const CtBusOptions& options) {
  return connectivity::ConnectivityEstimator(adjacency.dim(),
                                             options.precompute_estimator)
      .EstimateTraceExp(adjacency);
}

/// Delta(e) by the ball quadrature (connectivity::EdgeTraceIncrement) over
/// the base trace, for the universe edges listed in `todo`, sharded over
/// `num_threads` workers. The kernel only reads the shared adjacency and
/// each edge's result lands in its own slot, so the table is bit-identical
/// to a serial run.
void ComputeQuadratureIncrements(const linalg::SymmetricSparseMatrix& adjacency,
                                 double base_trace,
                                 const EdgeUniverse& universe,
                                 const std::vector<int>& todo,
                                 int num_threads,
                                 std::vector<double>* increments) {
  ParallelFor(static_cast<int>(todo.size()), num_threads,
              [&](int /*shard*/, int begin, int end) {
                for (int i = begin; i < end; ++i) {
                  const PlannableEdge& edge = universe.edge(todo[i]);
                  (*increments)[todo[i]] = connectivity::IncrementFromTrace(
                      connectivity::EdgeTraceIncrement(adjacency, edge.u,
                                                       edge.v),
                      base_trace);
                }
              });
}

/// Delta(e) via the first-order perturbation model: one Lanczos eigenpair
/// run on the calling thread, then the O(m)-per-edge evaluations sharded
/// over `num_threads` workers (the model is immutable, so shards share it).
void ComputePerturbationIncrements(
    const linalg::SymmetricSparseMatrix& adjacency, double base_trace,
    const EdgeUniverse& universe, const std::vector<int>& todo,
    int num_threads, std::vector<double>* increments) {
  const auto model = connectivity::PerturbationIncrementModel::Build(
      adjacency, std::max(base_trace, 1e-12), {});
  ParallelFor(static_cast<int>(todo.size()), num_threads,
              [&](int /*shard*/, int begin, int end) {
                for (int i = begin; i < end; ++i) {
                  const PlannableEdge& edge = universe.edge(todo[i]);
                  (*increments)[todo[i]] = std::max(
                      0.0, model.EdgeIncrement(edge.u, edge.v));
                }
              });
}

/// The add-estimate-restore cycle behind every online increment: stage the
/// path's new edges into `scratch`, estimate, and remove them again. The
/// staged entries always sit at the tails of their rows, so Remove's
/// swap-with-last only ever shuffles staged entries among themselves and
/// the pre-call row layout is restored exactly — which is what keeps
/// evaluations bit-identical across the shared scratch and every
/// per-worker copy (same layout -> same summation order).
double EstimateIncrementWith(
    const EdgeUniverse& universe,
    const connectivity::ConnectivityEstimator& estimator,
    linalg::SymmetricSparseMatrix* scratch, double base_lambda,
    const std::vector<int>& path_edges) {
  std::vector<std::pair<int, int>> added;
  for (int e : path_edges) {
    const PlannableEdge& edge = universe.edge(e);
    if (!edge.is_new) continue;
    if (scratch->Contains(edge.u, edge.v)) continue;
    scratch->Set(edge.u, edge.v, 1.0);
    added.emplace_back(edge.u, edge.v);
  }
  if (added.empty()) return 0.0;
  const double lambda_after = estimator.Estimate(*scratch);
  for (const auto& [u, v] : added) scratch->Remove(u, v);
  return lambda_after - base_lambda;
}

/// True if both option sets pin the same estimator (same probes and
/// quadrature).
[[maybe_unused]] bool SameEstimator(const connectivity::EstimatorOptions& a,
                                    const connectivity::EstimatorOptions& b) {
  return a.probes == b.probes && a.lanczos_steps == b.lanczos_steps &&
         a.seed == b.seed && a.probe_kind == b.probe_kind;
}

/// Universe ids of every candidate (is_new) edge, in id order.
std::vector<int> NewEdgeIds(const EdgeUniverse& universe) {
  std::vector<int> ids;
  ids.reserve(universe.num_new_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    if (universe.edge(e).is_new) ids.push_back(e);
  }
  return ids;
}

/// Runs the configured Delta(e) pass for `todo` against pre->base_trace
/// and accumulates the stats (the pruning screen runs two passes per
/// precompute, so the counters add up rather than overwrite).
void RunIncrementPass(const linalg::SymmetricSparseMatrix& adjacency,
                      const CtBusOptions& options,
                      const std::vector<int>& todo, Precompute* pre) {
  if (todo.empty()) return;
  const int threads =
      std::max(1, std::min(ResolveThreadCount(options.precompute_threads),
                           static_cast<int>(todo.size())));
  if (options.use_perturbation_precompute) {
    ComputePerturbationIncrements(adjacency, pre->base_trace, pre->universe,
                                  todo, threads, &pre->increments);
  } else {
    ComputeQuadratureIncrements(adjacency, pre->base_trace, pre->universe,
                                todo, threads, &pre->increments);
  }
  pre->stats.num_increments_recomputed += static_cast<int>(todo.size());
  pre->stats.threads_used = std::max(pre->stats.threads_used, threads);
}

/// True when the Lemma 3/4 candidate screen applies: the quadrature path
/// with CtBusOptions::prune_candidates set (the perturbation model is
/// already O(m) per candidate — nothing worth skipping).
bool PruningActive(const CtBusOptions& options) {
  return options.prune_candidates && !options.use_perturbation_precompute;
}

/// Screened Delta(e) pass (see docs/PRECOMPUTE.md, "Candidate pruning").
/// `todo` lists the universe ids to resolve; `filled[e]` marks is_new
/// edges whose increments[] already hold a final *estimate* (warm-start
/// carries) and may therefore anchor the cutoff. Two phases:
///   1. Estimate the top prune_keep_rank candidates by screen bound plus
///      the top prune_keep_rank by demand (the seeding signal). The
///      prune_keep_rank-th largest value among these estimates and the
///      carried ones is the cutoff c.
///   2. Estimate every remaining candidate whose bound exceeds c; the
///      rest store their bound with pruned[e] = 1 — a value <= c, so it
///      cannot displace any top-keep_rank estimate in the ranked lists.
/// Quadrature values are per-edge independent (each reads only the shared
/// adjacency), so survivors are bit-identical to an unpruned run.
void PruneAndEstimateIncrements(const linalg::SymmetricSparseMatrix& adjacency,
                                const CtBusOptions& options,
                                const std::vector<int>& todo,
                                const std::vector<char>& filled,
                                Precompute* pre) {
  if (todo.empty()) return;
  const EdgeUniverse& universe = pre->universe;
  const int keep = std::max(1, options.prune_keep_rank);
  const std::size_t count = todo.size();

  // The screen's baseline lambda(G) comes from the same base trace the
  // quadrature values are normalized by: bounds and values must be
  // measured against one base for the cutoff comparison to be meaningful.
  const double base_lambda = connectivity::NaturalConnectivityFromTrace(
      pre->base_trace, adjacency.dim());
  const connectivity::CandidateScreen screen =
      connectivity::CandidateScreen::Build(
          adjacency, base_lambda, options.precompute_estimator.lanczos_steps,
          options.precompute_estimator.seed ^ 0xc2b2ae3d27d4eb4fULL);

  std::vector<double> bounds(count);
  for (std::size_t i = 0; i < count; ++i) {
    const PlannableEdge& edge = universe.edge(todo[i]);
    bounds[i] = screen.EdgeBound(edge.u, edge.v);
  }

  // Phase 1 selection: indices into `todo`, deterministic order (value
  // descending, universe id ascending on ties).
  std::vector<int> by_bound(count);
  std::vector<int> by_demand(count);
  for (std::size_t i = 0; i < count; ++i) {
    by_bound[i] = static_cast<int>(i);
    by_demand[i] = static_cast<int>(i);
  }
  std::sort(by_bound.begin(), by_bound.end(), [&](int a, int b) {
    if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
    return todo[a] < todo[b];
  });
  std::sort(by_demand.begin(), by_demand.end(), [&](int a, int b) {
    const double da = universe.edge(todo[a]).demand;
    const double db = universe.edge(todo[b]).demand;
    if (da != db) return da > db;
    return todo[a] < todo[b];
  });
  std::vector<char> in_phase1(count, 0);
  for (std::size_t r = 0; r < count && r < static_cast<std::size_t>(keep);
       ++r) {
    in_phase1[by_bound[r]] = 1;
    in_phase1[by_demand[r]] = 1;
  }
  std::vector<int> phase1;
  for (std::size_t i = 0; i < count; ++i) {
    if (in_phase1[i]) phase1.push_back(todo[i]);
  }
  RunIncrementPass(adjacency, options, phase1, pre);

  // Cutoff: the keep-th largest known-final estimate (phase-1 results
  // plus warm-start carries). With fewer than `keep` estimates in hand,
  // nothing can be ruled out and everything is estimated.
  std::vector<double> known;
  known.reserve(phase1.size());
  for (int e : phase1) known.push_back(pre->increments[e]);
  if (!filled.empty()) {
    for (int e = 0; e < universe.num_edges(); ++e) {
      if (filled[e]) known.push_back(pre->increments[e]);
    }
  }
  double cutoff = -std::numeric_limits<double>::infinity();
  if (static_cast<int>(known.size()) >= keep) {
    std::nth_element(known.begin(), known.begin() + (keep - 1), known.end(),
                     std::greater<double>());
    cutoff = known[keep - 1];
  }

  // Phase 2: survivors vs pruned.
  std::vector<int> phase2;
  int num_pruned = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (in_phase1[i]) continue;
    if (bounds[i] > cutoff) {
      phase2.push_back(todo[i]);
    } else {
      pre->increments[todo[i]] = bounds[i];
      pre->pruned[todo[i]] = 1;
      ++num_pruned;
    }
  }
  RunIncrementPass(adjacency, options, phase2, pre);

  pre->stats.num_increments_estimated +=
      static_cast<int>(phase1.size() + phase2.size());
  pre->stats.num_increments_pruned += num_pruned;
}

}  // namespace

Precompute PlanningContext::RunPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options) {
  Precompute pre;

  // Phase 1: realize the plannable-edge universe (shortest-path search per
  // candidate edge; Table 4's "Shortest path" column).
  Stopwatch stopwatch;
  EdgeUniverseOptions universe_options;
  universe_options.tau = options.tau;
  pre.universe = EdgeUniverse::Build(road, transit, universe_options);
  pre.stats.universe_seconds = stopwatch.Seconds();
  pre.stats.num_new_edges = pre.universe.num_new_edges();

  // Phase 2: Delta(e) for every new edge (Table 4's "Connectivity"
  // column) — one estimate of the base trace, then either the ball
  // quadrature per edge or the perturbation model (one Lanczos eigenpair
  // run, then O(m) per edge). Sharded over options.precompute_threads;
  // bit-identical to serial.
  stopwatch.Reset();
  const linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  pre.base_trace = EstimateBaseTrace(adjacency, options);
  pre.increments.assign(pre.universe.num_edges(), 0.0);
  if (PruningActive(options)) {
    pre.pruned.assign(pre.universe.num_edges(), 0);
    PruneAndEstimateIncrements(adjacency, options, NewEdgeIds(pre.universe),
                               /*filled=*/{}, &pre);
  } else {
    RunIncrementPass(adjacency, options, NewEdgeIds(pre.universe), &pre);
  }
  pre.stats.increments_seconds = stopwatch.Seconds();
  return pre;
}

Precompute PlanningContext::DerivePrecompute(const graph::RoadNetwork& road,
                                             const graph::TransitNetwork& transit,
                                             const CtBusOptions& options,
                                             const Precompute& prev,
                                             const SnapshotDelta& delta) {
  Precompute pre;
  pre.stats.derived = true;
  pre.stats.derivation_depth = prev.stats.derivation_depth + 1;

  // Phase 1 replacement: carry the shortest-path realizations over. The
  // derived universe is bit-identical to EdgeUniverse::Build on the new
  // networks (commits add transit edges and zero demand; they never move
  // stops or change road topology).
  Stopwatch stopwatch;
  pre.universe = EdgeUniverse::DeriveFrom(prev.universe, road, transit);
  pre.stats.universe_seconds = stopwatch.Seconds();
  pre.stats.num_new_edges = pre.universe.num_new_edges();

  stopwatch.Reset();
  const linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  pre.base_trace = EstimateBaseTrace(adjacency, options);
  pre.increments.assign(pre.universe.num_edges(), 0.0);
  if (options.use_perturbation_precompute) {
    // The perturbation model is global (eigenpairs of the new adjacency),
    // so every candidate is re-evaluated — O(m) per edge after one Lanczos
    // run — keeping the derived result bit-identical to RunPrecompute.
    RunIncrementPass(adjacency, options, NewEdgeIds(pre.universe), &pre);
  } else {
    // Quadrature path: recompute Delta(e) only for candidates with an
    // endpoint among the delta's touched stops (their increments see the
    // added edges at zeroth order); carry the rest over from the donor,
    // rebased from the donor's base trace to the new one
    // (connectivity::RebaseIncrement) — a commit moves tr e^A enough that
    // unrebased values would be off by a common factor. Recomputed values
    // are bit-identical to from-scratch; carried values differ only by
    // the interaction of their trace increment with the added edges.
    // With pruning on, carried entries also keep the donor's pruned flag,
    // and the touched set goes through the same screen as a from-scratch
    // run (carried values — not carried bounds — anchor the cutoff).
    const bool pruning = PruningActive(options);
    if (pruning) pre.pruned.assign(pre.universe.num_edges(), 0);
    std::vector<char> touched(transit.num_stops(), 0);
    for (int s : delta.touched_stops) touched[s] = 1;
    struct Carried {
      double increment = 0.0;
      char pruned = 0;
    };
    std::unordered_map<std::uint64_t, Carried> prev_increment;
    prev_increment.reserve(prev.universe.num_new_edges());
    const auto pair_key = [](int u, int v) {
      return (static_cast<std::uint64_t>(u) << 32) |
             static_cast<std::uint32_t>(v);
    };
    for (int e = 0; e < prev.universe.num_edges(); ++e) {
      const PlannableEdge& edge = prev.universe.edge(e);
      if (!edge.is_new) continue;
      prev_increment.emplace(
          pair_key(edge.u, edge.v),
          Carried{prev.increments[e],
                  static_cast<char>(prev.IsPruned(e) ? 1 : 0)});
    }
    std::vector<int> todo;
    std::vector<char> filled(pruning ? pre.universe.num_edges() : 0, 0);
    int carried = 0;
    for (int e = 0; e < pre.universe.num_edges(); ++e) {
      const PlannableEdge& edge = pre.universe.edge(e);
      if (!edge.is_new) continue;
      const auto it = touched[edge.u] || touched[edge.v]
                          ? prev_increment.end()
                          : prev_increment.find(pair_key(edge.u, edge.v));
      if (it == prev_increment.end()) {
        todo.push_back(e);  // touched, or (defensively) unknown to the donor
      } else {
        pre.increments[e] = connectivity::RebaseIncrement(
            it->second.increment, prev.base_trace, pre.base_trace);
        if (pruning) {
          pre.pruned[e] = it->second.pruned;
          filled[e] = it->second.pruned ? 0 : 1;
        }
        ++carried;
      }
    }
    if (pruning) {
      PruneAndEstimateIncrements(adjacency, options, todo, filled, &pre);
    } else {
      RunIncrementPass(adjacency, options, todo, &pre);
    }
    pre.stats.num_increments_carried = carried;
  }
  pre.stats.increments_seconds = stopwatch.Seconds();
  return pre;
}

PlanningContext PlanningContext::Build(const graph::RoadNetwork& road,
                                       const graph::TransitNetwork& transit,
                                       const CtBusOptions& options) {
  return BuildWithPrecompute(road, transit, options,
                             RunPrecompute(road, transit, options));
}

PlanningContext PlanningContext::BuildWithPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options, Precompute precompute) {
  return BuildWithPrecompute(
      road, transit, options,
      std::make_shared<const Precompute>(std::move(precompute)));
}

PlanningContext PlanningContext::BuildWithPrecompute(
    const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
    const CtBusOptions& options,
    std::shared_ptr<const Precompute> precompute) {
  PlanningContext ctx;
  ctx.road_ = &road;
  ctx.transit_ = &transit;
  ctx.options_ = options;
  ctx.precompute_ = std::move(precompute);
  const EdgeUniverse& universe = ctx.precompute_->universe;

  // Shared estimator + base connectivity.
  ctx.scratch_adjacency_ = transit.AdjacencyMatrix();
  ctx.estimator_ = std::make_shared<const connectivity::ConnectivityEstimator>(
      transit.num_stops(), options.online_estimator);
  ctx.base_lambda_ = ctx.estimator_->Estimate(ctx.scratch_adjacency_);

  // Ranked lists and Equation 12 normalization.
  ctx.demand_list_ =
      std::make_shared<const demand::RankedList>(universe.DemandScores());
  ctx.increment_list_ = std::make_shared<const demand::RankedList>(
      ctx.precompute_->increments);
  ctx.d_max_ = std::max(ctx.demand_list_->TopSum(options.k), 1e-12);
  ctx.lambda_max_ = std::max(ctx.increment_list_->TopSum(options.k), 1e-12);
  ctx.BuildObjectiveList();
  return ctx;
}

PlanningContext PlanningContext::WithSearchOptions(
    const CtBusOptions& options) const {
  // d_max / lambda_max are top-k sums and the estimator is pinned by the
  // online estimator options, so those must match for sharing to be exact.
  assert(options.k == options_.k);
  assert(SameEstimator(options.online_estimator, options_.online_estimator));
  assert(SameEstimator(options.precompute_estimator,
                       options_.precompute_estimator));
  PlanningContext ctx;
  ctx.road_ = road_;
  ctx.transit_ = transit_;
  ctx.options_ = options;
  ctx.precompute_ = precompute_;
  ctx.scratch_adjacency_ = scratch_adjacency_;
  ctx.estimator_ = estimator_;
  ctx.base_lambda_ = base_lambda_;
  ctx.demand_list_ = demand_list_;
  ctx.increment_list_ = increment_list_;
  ctx.d_max_ = d_max_;
  ctx.lambda_max_ = lambda_max_;
  ctx.BuildObjectiveList();
  return ctx;
}

void PlanningContext::BuildObjectiveList() {
  // Integrated per-edge objective scores L_e (Equation 11).
  const EdgeUniverse& universe = precompute_->universe;
  std::vector<double> objective_scores(universe.num_edges());
  for (int e = 0; e < universe.num_edges(); ++e) {
    objective_scores[e] =
        Objective(universe.edge(e).demand, precompute_->increments[e]);
  }
  objective_list_ = demand::RankedList(std::move(objective_scores));
}

const std::vector<double>& PlanningContext::top_eigenvalues() const {
  if (top_eigenvalues_.empty()) {
    // Enough eigenvalues for the Lemma 3/4 bounds at the configured k.
    const int needed = std::max(2 * options_.k, 2);
    const int n = transit_->num_stops();
    linalg::Rng eig_rng(options_.online_estimator.seed ^ 0x9e3779b9ULL);
    top_eigenvalues_ =
        linalg::TopEigenvalues(scratch_adjacency_, std::min(needed, n),
                               std::min(n, needed + 30), &eig_rng);
  }
  return top_eigenvalues_;
}

double PlanningContext::Objective(double demand,
                                  double connectivity_increment) const {
  return options_.w * demand / d_max_ +
         (1.0 - options_.w) * connectivity_increment / lambda_max_;
}

double PlanningContext::OnlineConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  return EstimateIncrementWith(precompute_->universe, *estimator_,
                               &scratch_adjacency_, base_lambda_, path_edges);
}

double PlanningContext::OnlineConnectivityIncrementOnSlot(
    int slot, const std::vector<int>& path_edges) const {
  assert(slot >= 0 &&
         slot < static_cast<int>(online_eval_units_.size()));
  std::unique_ptr<OnlineEvalUnit>& unit = online_eval_units_[slot];
  if (unit == nullptr) {
    // First use of this slot: copy the base adjacency (same deterministic
    // construction => same row layout). The estimator is immutable and
    // shared by every slot.
    unit = std::make_unique<OnlineEvalUnit>();
    unit->scratch_adjacency = transit_->AdjacencyMatrix();
  }
  return EstimateIncrementWith(precompute_->universe, *estimator_,
                               &unit->scratch_adjacency, base_lambda_,
                               path_edges);
}

void PlanningContext::ReserveOnlineEvalSlots(int n) const {
  if (n > static_cast<int>(online_eval_units_.size())) {
    online_eval_units_.resize(n);
  }
}

int PlanningContext::num_online_eval_units_built() const {
  int built = 0;
  for (const auto& unit : online_eval_units_) built += unit != nullptr;
  return built;
}

std::size_t PlanningContext::ApproxBytes() const {
  std::size_t bytes = sizeof(PlanningContext) + precompute_->ApproxBytes() +
                      demand_list_->ApproxBytes() +
                      increment_list_->ApproxBytes() +
                      objective_list_.ApproxBytes() +
                      estimator_->ApproxBytes() +
                      scratch_adjacency_.ApproxBytes() +
                      top_eigenvalues_.size() * sizeof(double) +
                      online_eval_units_.size() *
                          sizeof(std::unique_ptr<OnlineEvalUnit>);
  for (const auto& unit : online_eval_units_) {
    if (unit == nullptr) continue;
    bytes += sizeof(OnlineEvalUnit) + unit->scratch_adjacency.ApproxBytes();
  }
  return bytes;
}

double PlanningContext::LinearConnectivityIncrement(
    const std::vector<int>& path_edges) const {
  double total = 0.0;
  for (int e : path_edges) total += precompute_->increments[e];
  return total;
}

double PlanningContext::PathConnectivityIncrementBound(int k) const {
  const double bound = connectivity::PathUpperBound(
      base_lambda_, top_eigenvalues(), k, transit_->num_stops());
  return bound - base_lambda_;
}

}  // namespace ctbus::core
