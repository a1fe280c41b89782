// User-facing knobs of the CT-Bus planner (Definition 6 and Section 7.1's
// experimental parameters).
#ifndef CTBUS_CORE_OPTIONS_H_
#define CTBUS_CORE_OPTIONS_H_

#include "connectivity/natural_connectivity.h"

namespace ctbus::core {

struct CtBusOptions {
  /// Maximum number of (new and existing) edges in the planned route.
  /// ctbus-lint: key-exempt(search knob, not a precompute input — sweepable per request)
  int k = 30;

  /// Weight between demand (w) and connectivity (1 - w) in Equation 3.
  /// ctbus-lint: key-exempt(objective weight only scales ranking at query time, never Delta(e))
  double w = 0.5;

  /// Straight-line distance threshold tau between neighbor stops for
  /// candidate new edges, meters (the paper fixes 0.5 km). Together with
  /// precompute_estimator, tau determines the precompute output — the
  /// serving layer keys its cache AND its request batches on exactly these
  /// fields (service/precompute_cache.h), while k / w / max_turns /
  /// seed_count / planner stay sweepable for free.
  double tau = 500.0;

  /// Turn threshold Tn: candidates with tn(mu) >= Tn stop expanding.
  /// ctbus-lint: key-exempt(search-time expansion bound, precompute-invariant)
  int max_turns = 3;

  /// Seeding number sn: only the top-sn edges of the integrated ranking
  /// seed the expansion (Section 6.2, "Selective Edges for Seeding").
  /// ctbus-lint: key-exempt(seeding consumes the precompute, never shapes it)
  int seed_count = 5000;

  /// Iteration cap it_max of Algorithm 1.
  /// ctbus-lint: key-exempt(search-time iteration budget, precompute-invariant)
  int max_iterations = 100000;

  /// Estimator used for online connectivity evaluation inside ETA
  /// (the paper's s = 50, t = 10 defaults).
  /// ctbus-lint: key-exempt(online estimator runs per query inside ETA; the precompute uses precompute_estimator)
  connectivity::EstimatorOptions online_estimator;

  /// Estimator of the Delta(e) pre-computation's one stochastic number,
  /// the base trace tr e^A (Precompute::base_trace) that every candidate's
  /// quadrature trace increment is divided by. The candidates themselves
  /// are computed deterministically (connectivity::EdgeTraceIncrement).
  connectivity::EstimatorOptions precompute_estimator = {
      /*probes=*/8, /*lanczos_steps=*/8, /*seed=*/11};

  /// Worker threads for the Delta(e) pre-computation loop (the dominant
  /// Table 4 cost). 1 = serial; 0 or negative = hardware concurrency. The
  /// result is bit-identical at any thread count (the shards only read the
  /// shared adjacency and base trace; see docs/PRECOMPUTE.md), so this knob
  /// is deliberately NOT part of the precompute cache key.
  /// ctbus-lint: key-exempt(bit-identical at any thread count — keying would fragment the cache)
  int precompute_threads = 1;

  /// Worker threads for ETA's online frontier evaluation — the
  /// per-neighbor Lanczos estimates on lines 7-16 of Algorithm 1, the
  /// dominant per-query cost of SearchMode::kOnline (ETA-Pre ranks
  /// neighbors by L_e and never forks). 1 = serial, exactly the classic
  /// loop; 0 or negative = hardware concurrency. Results are bit-identical
  /// at any setting: every worker reads the context's one immutable
  /// adjacency and online estimator (same pinned probes; see
  /// PlanningContext::OnlineConnectivityIncrement), and candidates are
  /// reduced in serial order (argmax, lowest index wins ties). Like
  /// precompute_threads, this knob is therefore deliberately
  /// NOT part of the serving layer's precompute cache key or batch key
  /// (service/precompute_cache.h).
  /// ctbus-lint: key-exempt(bit-identical at any thread count — keying would fragment the cache)
  int eta_threads = 1;

  /// Algorithm 1 variant toggles (Section 4.2.2 / 4.2.3, Figure 11):
  /// false => ETA-AN: enqueue the path extended with *every* neighbor
  /// instead of only the best pair.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool best_neighbor_only = true;
  /// false => ETA-DT: skip the domination-table pruning.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool use_domination_table = true;
  /// true => ETA-ALL: seed every candidate edge, not just the top-sn.
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool seed_all_edges = false;
  /// true => vk-TSP behaviour: only new edges may be used (Section 7.2.1).
  /// ctbus-lint: key-exempt(search variant toggle, consumes the precompute unchanged)
  bool new_edges_only = false;

  /// Record (iteration, best objective) every `trace_every` iterations
  /// into PlanResult::trace (0 disables); used by the convergence figures.
  /// ctbus-lint: key-exempt(observability knob, never changes the precompute or the plan)
  int trace_every = 0;
};

}  // namespace ctbus::core

#endif  // CTBUS_CORE_OPTIONS_H_
