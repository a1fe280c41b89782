// Everything the planners need, assembled once per (dataset, options):
// the plannable-edge universe, the Delta(e) pre-computation, the three
// ranked lists (L_d, L_lambda, L_e), the shared connectivity estimator with
// its base-network estimate, the top eigenvalues feeding the Lemma 3/4
// bounds, and the Equation 12 normalization constants.
//
// A context build does only the work every answer reads: the base
// adjacency and its estimate, the ranked lists and the normalization. The
// top eigenvalues feed only online ETA's Lemma 4 bound, so they are
// computed on first use; ETA-Pre and vk-TSP never pay for the eigen-solve.
// WithSearchOptions derives a sibling for a different objective weight or
// edge restriction (vk-TSP's w = 1, new-edges-only search): it shares every
// immutable part, the adjacency included, and rebuilds only L_e.
#ifndef CTBUS_CORE_PLANNING_CONTEXT_H_
#define CTBUS_CORE_PLANNING_CONTEXT_H_

#include <memory>
#include <vector>

#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "core/options.h"
#include "demand/ranked_list.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "linalg/sparse_matrix.h"

namespace ctbus::core {

/// Wall-clock cost of the pre-computation phases (Table 4), plus the
/// provenance of a warm-started run.
struct PrecomputeStats {
  double universe_seconds = 0.0;     // shortest-path realization
  double increments_seconds = 0.0;   // base trace + Delta(e) loop
  int num_new_edges = 0;
  /// True if this precompute was derived from a previous snapshot version
  /// (DerivePrecompute) instead of computed from scratch.
  bool derived = false;
  /// Derivation chain length: 0 for a from-scratch precompute, donor's
  /// depth + 1 for a derived one. Each hop can add carry error, so the
  /// serving layer bounds this (ServiceOptions::max_warm_start_depth) and
  /// prefers depth-0 donors.
  int derivation_depth = 0;
  /// Delta(e) evaluations actually executed in this run. From scratch this
  /// equals num_new_edges; a warm start only evaluates the candidates
  /// touched by the snapshot delta.
  int num_increments_recomputed = 0;
  /// Delta(e) values carried over from the donor precompute: the donor's
  /// trace increment, re-expressed against this precompute's base trace
  /// (connectivity::RebaseIncrement) — not the donor's value verbatim.
  int num_increments_carried = 0;
  /// Shards actually used for the Delta(e) loop (after clamping
  /// CtBusOptions::precompute_threads to the amount of work).
  int threads_used = 1;
};

/// Edge-level difference between two snapshot versions of one city, as
/// recorded by service::SnapshotStore::CommitRoute and consumed by
/// PlanningContext::DerivePrecompute. A commit only ever *adds* transit
/// edges and zeroes road demand, so the delta is purely additive.
struct SnapshotDelta {
  /// Stop pairs whose transit edge became active between the versions
  /// (pairs that were already active-connected before are not listed).
  std::vector<std::pair<int, int>> added_stop_pairs;
  /// Sorted, deduplicated endpoints of added_stop_pairs. Candidates with
  /// neither endpoint in this set keep their Delta(e) on a warm start.
  std::vector<int> touched_stops;
  /// Sorted, deduplicated road edges whose trip counts were zeroed
  /// (demand changes propagate to every universe edge crossing them).
  std::vector<int> changed_road_edges;
};

/// The expensive, parameter-sweep-invariant part of context construction:
/// the plannable-edge universe (depends on tau) and the Delta(e)
/// pre-computation (depends on the precompute estimator, through the base
/// trace). Reusable across
/// contexts with different k / w / Tn / sn. Immutable once built; the
/// serving layer shares it across threads via shared_ptr<const Precompute>
/// without further synchronization.
struct Precompute {
  EdgeUniverse universe;
  /// tr e^A of the base network as CtBusOptions::precompute_estimator
  /// estimates it — the one stochastic number in the table. Every Delta(e)
  /// is log1p(trace increment / base_trace), so a warm start rebases
  /// carried values from the donor's base_trace to its own.
  double base_trace = 0.0;
  std::vector<double> increments;
  PrecomputeStats stats;

  /// Approximate resident footprint in bytes (universe + Delta(e) table).
  /// This is the unit the serving layer's byte-budgeted PrecomputeCache
  /// charges per entry. Deterministic; O(universe edges).
  std::size_t ApproxBytes() const {
    return sizeof(Precompute) - sizeof(EdgeUniverse) +
           universe.ApproxBytes() + increments.size() * sizeof(double);
  }
};

class PlanningContext {
 public:
  /// Runs only the expensive pre-computation phases. Delta(e) is the
  /// candidate's ball quadrature (connectivity::EdgeTraceIncrement) over
  /// one estimated base trace. The loop is sharded over
  /// options.precompute_threads workers (1 = serial, <= 0 = hardware
  /// concurrency); the shards only read the shared adjacency, so the
  /// result is bit-identical at any thread count. Thread-safe for
  /// concurrent callers (shares nothing but its const inputs).
  static Precompute RunPrecompute(const graph::RoadNetwork& road,
                                  const graph::TransitNetwork& transit,
                                  const CtBusOptions& options);

  /// Warm start: derives the precompute for the networks (road, transit)
  /// from `prev`, the precompute of an *ancestor* snapshot version, given
  /// the composed `delta` between the two versions. Requirements: same
  /// city (stop set unchanged), same options (tau, detour, precompute
  /// estimator), and the newer snapshot reachable from the older one by
  /// CommitRoute steps only.
  ///
  /// The carried-over work: the universe's shortest-path realizations are
  /// reused wholesale (bit-identical to EdgeUniverse::Build on the new
  /// networks), and the Delta(e) of candidates not touching
  /// delta.touched_stops is carried from `prev`, rebased to the new base
  /// trace (bit-identical to from-scratch for recomputed candidates,
  /// first-order-accurate for carried ones). See docs/PRECOMPUTE.md.
  static Precompute DerivePrecompute(const graph::RoadNetwork& road,
                                     const graph::TransitNetwork& transit,
                                     const CtBusOptions& options,
                                     const Precompute& prev,
                                     const SnapshotDelta& delta);

  /// Builds the full context (runs RunPrecompute internally).
  /// `road` and `transit` must outlive it.
  static PlanningContext Build(const graph::RoadNetwork& road,
                               const graph::TransitNetwork& transit,
                               const CtBusOptions& options);

  /// Builds a context around an existing pre-computation (moved in).
  /// The precompute must have been produced for the same (road, transit,
  /// tau); only k / w / Tn / sn / estimator seeds may differ.
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options, Precompute precompute);

  /// Shares an existing pre-computation without copying it — the context
  /// keeps the shared_ptr alive and reads the universe / increments in
  /// place. This is the hot path of the serving layer's cache hits: the
  /// Precompute is immutable, so any number of contexts (on any threads)
  /// may share one instance. A context's only mutable state is its lazily
  /// computed top eigenvalues, which is what keeps a *context* to one
  /// search at a time while the *precompute* is freely shared.
  static PlanningContext BuildWithPrecompute(
      const graph::RoadNetwork& road, const graph::TransitNetwork& transit,
      const CtBusOptions& options,
      std::shared_ptr<const Precompute> precompute);

  const graph::RoadNetwork& road() const { return *road_; }
  const graph::TransitNetwork& transit() const { return *transit_; }
  const CtBusOptions& options() const { return options_; }
  const EdgeUniverse& universe() const { return precompute_->universe; }

  /// L_d, L_lambda, L_e over universe edge ids.
  const demand::RankedList& demand_list() const { return *demand_list_; }
  const demand::RankedList& increment_list() const {
    return *increment_list_;
  }
  const demand::RankedList& objective_list() const { return objective_list_; }

  /// Delta(e) per universe edge (0 for existing edges).
  const std::vector<double>& increments() const {
    return precompute_->increments;
  }

  /// Normalization constants of Equation 12.
  double d_max() const { return d_max_; }
  double lambda_max() const { return lambda_max_; }

  /// lambda(G_r) as seen by the shared estimator.
  double base_lambda() const { return base_lambda_; }

  /// The shared (common-random-numbers) estimator.
  const connectivity::ConnectivityEstimator& estimator() const {
    return *estimator_;
  }

  /// Top eigenvalues of the base adjacency (descending), enough for the
  /// Lemma 3/4 bounds at the configured k. Computed on first use, so const
  /// but NOT thread-safe per context: the search thread calls it before
  /// forking, and this is why one context serves one search at a time.
  const std::vector<double>& top_eigenvalues() const;

  const PrecomputeStats& precompute_stats() const {
    return precompute_->stats;
  }

  /// Approximate resident footprint in bytes of this context's own state
  /// plus the (possibly shared) parts it holds alive: ranked lists,
  /// estimator probes, base adjacency, eigenvalues, and the precompute
  /// tables. Contexts sharing one precompute each report its bytes — the
  /// serving layer accounts the shared copy once, via the cache.
  std::size_t ApproxBytes() const;

  /// A sibling context for a search that differs from this one only in
  /// query-time options: w, new_edges_only, Tn, sn, the iteration cap and
  /// the Algorithm 1 variant toggles. `options` must keep this context's k
  /// and estimator options (asserted). The sibling shares the precompute,
  /// the base adjacency, the estimator, lambda(G_r), L_d, L_lambda, d_max
  /// and lambda_max, and rebuilds only L_e (Equation 11 weighs by w).
  /// Bit-identical to BuildWithPrecompute(road(), transit(), options, p)
  /// over this context's precompute p.
  PlanningContext WithSearchOptions(const CtBusOptions& options) const;

  /// Normalized objective (Equation 3) from raw demand and connectivity
  /// increment.
  double Objective(double demand, double connectivity_increment) const;

  /// Online connectivity increment of a path's *new* edges, evaluated with
  /// the shared estimator against the base network (the Lanczos call on
  /// lines 10/13 of Algorithm 1): connectivity::EdgeSetIncrement stages
  /// them, in path order, in a read-only view of the base adjacency. Reads
  /// only immutable state, so any number of threads may call it on one
  /// context at once (ETA's frontier workers do).
  double OnlineConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// Linearized connectivity increment: sum of Delta(e) over the path's
  /// edges (ETA-Pre's surrogate).
  double LinearConnectivityIncrement(const std::vector<int>& path_edges) const;

  /// Upper bound on the connectivity increment of any path completed to at
  /// most k edges (Lemma 4, normalized to an increment).
  double PathConnectivityIncrementBound(int k) const;

 private:
  PlanningContext() = default;

  /// Builds L_e (Equation 11) from the shared lists and normalization.
  void BuildObjectiveList();

  const graph::RoadNetwork* road_ = nullptr;
  const graph::TransitNetwork* transit_ = nullptr;
  CtBusOptions options_;
  std::shared_ptr<const Precompute> precompute_;
  /// L_d and L_lambda depend only on the precompute; siblings share them.
  std::shared_ptr<const demand::RankedList> demand_list_;
  std::shared_ptr<const demand::RankedList> increment_list_;
  demand::RankedList objective_list_;
  std::shared_ptr<const connectivity::ConnectivityEstimator> estimator_;
  /// The base transit adjacency, built once per BuildWithPrecompute and
  /// never written; siblings share it.
  std::shared_ptr<const linalg::SymmetricSparseMatrix> adjacency_;
  double base_lambda_ = 0.0;
  /// Empty until top_eigenvalues() first runs the eigen-solve.
  mutable std::vector<double> top_eigenvalues_;
  double d_max_ = 1.0;
  double lambda_max_ = 1.0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_PLANNING_CONTEXT_H_
