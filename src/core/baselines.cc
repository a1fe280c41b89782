#include "core/baselines.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "connectivity/edge_increment.h"
#include "graph/geo.h"
#include "graph/union_find.h"

namespace ctbus::core {

PlanResult RunVkTsp(const PlanningContext* context) {
  // The baseline is Algorithm 1 with w = 1 and new edges only
  // (Section 7.2.1). Only the weight and the edge restriction change, so
  // the sibling context is derived from the caller's: it shares the
  // precompute, estimator, base lambda, L_d, L_lambda and normalization,
  // and rebuilds only L_e.
  CtBusOptions options = context->options();
  options.w = 1.0;
  options.new_edges_only = true;
  const PlanningContext baseline_context =
      context->WithSearchOptions(options);
  PlanResult result = RunEta(&baseline_context, SearchMode::kPrecomputed);
  // Score the baseline's route under the caller's objective (the paper's
  // Table 6 reports all methods under the same weighted objective).
  if (result.found) {
    result.objective =
        context->Objective(result.demand, result.connectivity_increment);
  }
  return result;
}

ConnectivityFirstResult RunConnectivityFirst(const PlanningContext* context,
                                             int l, int rescore_pool) {
  if (l < 1) {
    throw std::invalid_argument("RunConnectivityFirst: l must be >= 1, got " +
                                std::to_string(l));
  }
  const EdgeUniverse& universe = context->universe();
  ConnectivityFirstResult result;

  // Candidate pool: new edges ranked by their precomputed Delta(e).
  std::vector<int> pool;
  for (int rank = 0; rank < context->increment_list().size(); ++rank) {
    const int e = context->increment_list().EdgeAtRank(rank);
    if (universe.edge(e).is_new) pool.push_back(e);
  }
  if (pool.empty()) return result;

  // Greedy: each round, re-estimate the marginal gain of the top
  // `rescore_pool` remaining candidates against the current augmented
  // network and take the best (the [22] greedy, with a re-scored shortlist
  // instead of the full candidate set for tractability).
  linalg::SymmetricSparseMatrix augmented = context->transit().AdjacencyMatrix();
  const auto& estimator = context->estimator();
  double current_lambda = estimator.Estimate(augmented);
  const double base_lambda = current_lambda;
  std::vector<bool> taken(universe.num_edges(), false);
  for (int round = 0; round < l; ++round) {
    int best_edge = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    int scored = 0;
    for (int e : pool) {
      if (taken[e]) continue;
      const auto& edge = universe.edge(e);
      if (augmented.Contains(edge.u, edge.v)) continue;
      const double gain = connectivity::EdgeIncrement(
          &augmented, current_lambda, estimator, edge.u, edge.v);
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e;
      }
      if (++scored >= rescore_pool) break;
    }
    if (best_edge < 0) break;
    const auto& edge = universe.edge(best_edge);
    augmented.Set(edge.u, edge.v, 1.0);
    current_lambda += best_gain;
    taken[best_edge] = true;
    result.edges.push_back(best_edge);
  }
  if (result.edges.empty()) return result;  // nothing to stitch
  result.connectivity_increment =
      estimator.Estimate(augmented) - base_lambda;

  // How route-like is the chosen edge set? Count components among the
  // chosen edges (sharing a stop joins them), find the largest per-stop
  // multiplicity (a path needs <= 2), and measure the total straight-line
  // gap of a nearest-neighbor tour over the fragments.
  const int n = static_cast<int>(result.edges.size());
  graph::UnionFind uf(n);
  std::unordered_map<int, int> stop_degree;
  for (int i = 0; i < n; ++i) {
    const auto& a = universe.edge(result.edges[i]);
    ++stop_degree[a.u];
    ++stop_degree[a.v];
    for (int j = i + 1; j < n; ++j) {
      const auto& b = universe.edge(result.edges[j]);
      if (a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v) {
        uf.Union(i, j);
      }
    }
  }
  result.num_components = uf.num_sets();
  for (const auto& [stop, degree] : stop_degree) {
    result.max_stop_degree = std::max(result.max_stop_degree, degree);
  }
  result.forms_simple_path =
      result.num_components == 1 && result.max_stop_degree <= 2;

  // Nearest-neighbor tour over edge midpoints approximates the stitch cost.
  std::vector<graph::Point> midpoints;
  for (int e : result.edges) {
    const auto& edge = universe.edge(e);
    const auto& pu = context->transit().stop(edge.u).position;
    const auto& pv = context->transit().stop(edge.v).position;
    midpoints.push_back({(pu.x + pv.x) / 2, (pu.y + pv.y) / 2});
  }
  std::vector<bool> visited(midpoints.size(), false);
  int current = 0;
  visited[0] = true;
  for (std::size_t step = 1; step < midpoints.size(); ++step) {
    int next = -1;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < midpoints.size(); ++j) {
      if (visited[j]) continue;
      const double d = graph::Distance(midpoints[current], midpoints[j]);
      if (d < best) {
        best = d;
        next = static_cast<int>(j);
      }
    }
    result.stitch_gap_meters += best;
    visited[next] = true;
    current = next;
  }
  return result;
}

}  // namespace ctbus::core
