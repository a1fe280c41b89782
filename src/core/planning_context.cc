#include "core/planning_context.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "connectivity/bounds.h"
#include "connectivity/edge_increment.h"
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

/// Delta(e) by the ball quadrature (connectivity::EdgeTraceIncrement) over
/// pre->base_trace, for the universe edges listed in `todo`, sharded over
/// options.precompute_threads workers. The kernel only reads the shared
/// adjacency and each edge's result lands in its own slot, so the table is
/// bit-identical to a serial run.
void ComputeIncrements(const linalg::SymmetricSparseMatrix& adjacency,
                       const CtBusOptions& options,
                       const std::vector<int>& todo, Precompute* pre) {
  if (todo.empty()) return;
  const int threads =
      std::max(1, std::min(ResolveThreadCount(options.precompute_threads),
                           static_cast<int>(todo.size())));
  ParallelFor(static_cast<int>(todo.size()), threads,
              [&](int /*shard*/, int begin, int end) {
                for (int i = begin; i < end; ++i) {
                  const PlannableEdge& edge = pre->universe.edge(todo[i]);
                  pre->increments[todo[i]] = connectivity::IncrementFromTrace(
                      connectivity::EdgeTraceIncrement(adjacency, edge.u,
                                                       edge.v),
                      pre->base_trace);
                }
              });
  pre->stats.num_increments_recomputed = static_cast<int>(todo.size());
  pre->stats.threads_used = threads;
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
  // column) — one estimate of the base trace, then the ball quadrature per
  // edge. Sharded over options.precompute_threads; bit-identical to serial.
  stopwatch.Reset();
  const linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  pre.base_trace = EstimateBaseTrace(adjacency, options);
  pre.increments.assign(pre.universe.num_edges(), 0.0);
  ComputeIncrements(adjacency, options, NewEdgeIds(pre.universe), &pre);
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
  // Recompute Delta(e) only for candidates with an endpoint among the
  // delta's touched stops (their increments see the added edges at zeroth
  // order); carry the rest over from the donor, rebased from the donor's
  // base trace to the new one (connectivity::RebaseIncrement) — a commit
  // moves tr e^A enough that unrebased values would be off by a common
  // factor. Recomputed values are bit-identical to from-scratch; carried
  // values differ only by the interaction of their trace increment with the
  // added edges.
  std::vector<char> touched(transit.num_stops(), 0);
  for (int s : delta.touched_stops) touched[s] = 1;
  std::unordered_map<std::uint64_t, double> prev_increment;
  prev_increment.reserve(prev.universe.num_new_edges());
  const auto pair_key = [](int u, int v) {
    return (static_cast<std::uint64_t>(u) << 32) |
           static_cast<std::uint32_t>(v);
  };
  for (int e = 0; e < prev.universe.num_edges(); ++e) {
    const PlannableEdge& edge = prev.universe.edge(e);
    if (!edge.is_new) continue;
    prev_increment.emplace(pair_key(edge.u, edge.v), prev.increments[e]);
  }
  std::vector<int> todo;
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
          it->second, prev.base_trace, pre.base_trace);
      ++carried;
    }
  }
  ComputeIncrements(adjacency, options, todo, &pre);
  pre.stats.num_increments_carried = carried;
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

  // Shared adjacency, estimator and base connectivity.
  ctx.adjacency_ = std::make_shared<const linalg::SymmetricSparseMatrix>(
      transit.AdjacencyMatrix());
  ctx.estimator_ = std::make_shared<const connectivity::ConnectivityEstimator>(
      transit.num_stops(), options.online_estimator);
  ctx.base_lambda_ = ctx.estimator_->Estimate(*ctx.adjacency_);

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
  ctx.adjacency_ = adjacency_;
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
        linalg::TopEigenvalues(*adjacency_, std::min(needed, n),
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
  std::vector<std::pair<int, int>> new_pairs;
  for (const int e : path_edges) {
    const PlannableEdge& edge = precompute_->universe.edge(e);
    if (edge.is_new) new_pairs.emplace_back(edge.u, edge.v);
  }
  return connectivity::EdgeSetIncrement(adjacency_.get(), base_lambda_,
                                        *estimator_, new_pairs);
}

std::size_t PlanningContext::ApproxBytes() const {
  return sizeof(PlanningContext) + precompute_->ApproxBytes() +
         demand_list_->ApproxBytes() + increment_list_->ApproxBytes() +
         objective_list_.ApproxBytes() + estimator_->ApproxBytes() +
         adjacency_->ApproxBytes() + top_eigenvalues_.size() * sizeof(double);
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
