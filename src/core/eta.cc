#include "core/eta.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "core/domination_table.h"
#include "core/parallel_for.h"
#include "demand/demand_bound.h"

namespace ctbus::core {

namespace {

struct QueueEntry {
  double upper_bound = 0.0;
  double objective = 0.0;
  CandidatePath path;
  demand::BoundState bound_state;

  bool operator<(const QueueEntry& other) const {
    return upper_bound < other.upper_bound;  // max-heap on O_up
  }
};

// The search engine shared by ETA and ETA-Pre; mode selects the objective
// evaluation and bound machinery.
class EtaSearch {
 public:
  EtaSearch(const PlanningContext* ctx, SearchMode mode)
      : ctx_(ctx),
        mode_(mode),
        options_(ctx->options()),
        // ETA bounds demand via L_d (Algorithm 2); ETA-Pre bounds the
        // integrated objective via L_e (Section 6.2).
        bound_(mode == SearchMode::kOnline ? &ctx->demand_list()
                                           : &ctx->objective_list(),
               options_.k) {
    // Frontier evaluation forks only in kOnline mode, where each candidate
    // costs one Lanczos estimate; ETA-Pre's ranked-list lookups would be
    // swamped by any synchronization. eta_threads <= 1 keeps the serial
    // loop with no pool at all.
    if (mode_ == SearchMode::kOnline) {
      const int threads = ResolveThreadCount(options_.eta_threads);
      if (threads > 1) pool_ = std::make_unique<WorkerPool>(threads);
    }
  }

  PlanResult Run() {
    const auto start = std::chrono::steady_clock::now();
    Initialize();
    int it = 0;
    while (!queue_.empty()) {
      QueueEntry entry = PopBest();
      if (entry.upper_bound <= best_objective_ || it >= options_.max_iterations) {
        break;  // Line 5-6 of Algorithm 1
      }
      ++it;
      if (options_.best_neighbor_only) {
        ExpandBestNeighbor(std::move(entry));
      } else {
        ExpandAllNeighbors(std::move(entry));  // ETA-AN
      }
      if (options_.trace_every > 0 && it % options_.trace_every == 0) {
        result_.trace.emplace_back(it, best_objective_);
      }
    }
    result_.iterations = it;
    FinalizeResult();
    result_.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return std::move(result_);
  }

 private:
  // Connectivity increment of a candidate path under the active mode.
  double Increment(const CandidatePath& path) const {
    if (mode_ == SearchMode::kPrecomputed) {
      return ctx_->LinearConnectivityIncrement(path.edges());
    }
    return ctx_->OnlineConnectivityIncrement(path.edges());
  }

  // The online increment behind an objective, when there is one: kOnline
  // scores every non-seed path with an online estimate, which
  // FinalizeResult can then carry instead of re-estimating.
  std::optional<double> OnlineOnly(double increment) const {
    if (mode_ != SearchMode::kOnline) return std::nullopt;
    return increment;
  }

  // Linearized objective (used for seeds in both modes; for online mode the
  // seed increments are themselves Lanczos-estimated during pre-computation).
  double EvaluateLinear(const CandidatePath& path) const {
    return ctx_->Objective(path.demand(),
                           ctx_->LinearConnectivityIncrement(path.edges()));
  }

  // Upper bound of a path state (Algorithm 1 lines 26/31; Section 6.2 for
  // the precomputed mode where the integrated bound is used directly).
  double UpperBound(const demand::BoundState& state) const {
    if (mode_ == SearchMode::kPrecomputed) return state.bound;
    return options_.w * state.bound / ctx_->d_max() +
           (1.0 - options_.w) * lambda_increment_bound_ / ctx_->lambda_max();
  }

  bool EdgeAllowed(int edge) const {
    return !options_.new_edges_only || ctx_->universe().edge(edge).is_new;
  }

  // `online_increment` is the online estimate `objective` was scored
  // with, or nullopt for a linear (ranked-list) score.
  void MaybeUpdateBest(const CandidatePath& path, double objective,
                       std::optional<double> online_increment) {
    if (path.turns() > options_.max_turns) return;  // infeasible as a route
    if (path.num_edges() > options_.k) return;      // over the edge budget
    if (objective > best_objective_) {
      best_objective_ = objective;
      best_online_increment_ = online_increment;
      result_.found = true;
      result_.path = path;
      result_.objective = objective;
    }
  }

  // Initialization (Algorithm 1, lines 18-27): seed single-edge paths from
  // the integrated ranking (top-sn, or all edges for ETA-ALL).
  void Initialize() {
    const demand::RankedList& seeds = ctx_->objective_list();
    const int seed_limit = options_.seed_all_edges
                               ? seeds.size()
                               : std::min(options_.seed_count, seeds.size());
    for (int rank = 0; rank < seed_limit; ++rank) {
      const int edge = seeds.EdgeAtRank(rank);
      if (!EdgeAllowed(edge)) continue;
      QueueEntry entry;
      entry.path = CandidatePath(ctx_->universe(), edge);
      entry.objective = EvaluateLinear(entry.path);
      MaybeUpdateBest(entry.path, entry.objective, std::nullopt);
      entry.bound_state = bound_.SeedState(edge);
      entry.upper_bound = UpperBound(entry.bound_state);
      if (entry.upper_bound > best_objective_) Push(std::move(entry));
    }
  }

  // Feasible extensions of `path` at `at_stop`, restricted to allowed edges.
  std::vector<int> FeasibleExtensions(const CandidatePath& path,
                                      int at_stop) const {
    std::vector<int> result;
    for (int e : ctx_->universe().IncidentEdges(at_stop)) {
      if (!EdgeAllowed(e)) continue;
      if (path.CanExtend(ctx_->universe(), ctx_->transit(), e, at_stop)) {
        result.push_back(e);
      }
    }
    return result;
  }

  // Lines 7-16: pick the best beginning edge `be` and ending edge `ee` by
  // objective, extend both ends, evaluate, and re-enqueue.
  void ExpandBestNeighbor(QueueEntry entry) {
    // kOnline: objective and increment of the last extension BestExtension
    // picked — exactly entry.path once both ends are grown.
    double objective = 0.0;
    double increment = 0.0;
    // Best extension at the end (respecting the k-edge budget).
    int best_end = -1;
    if (entry.path.num_edges() < options_.k) {
      best_end = BestExtension(entry.path, entry.path.end_stop(), &objective,
                               &increment);
      if (best_end >= 0) {
        entry.path.Extend(ctx_->universe(), ctx_->transit(), best_end,
                          entry.path.end_stop());
        entry.bound_state = bound_.Append(entry.bound_state, best_end);
      }
    }
    // Best extension at the beginning (re-validated against the grown path).
    int best_begin = -1;
    if (entry.path.num_edges() < options_.k) {
      best_begin = BestExtension(entry.path, entry.path.begin_stop(),
                                 &objective, &increment);
      if (best_begin >= 0) {
        entry.path.Extend(ctx_->universe(), ctx_->transit(), best_begin,
                          entry.path.begin_stop());
        entry.bound_state = bound_.Append(entry.bound_state, best_begin);
      }
    }
    if (best_end < 0 && best_begin < 0) return;  // dead end

    // Line 13. kOnline reuses the last BestExtension's estimate: it staged
    // the same edges in the same order, so re-estimating gives the same
    // bits.
    if (mode_ == SearchMode::kPrecomputed) {
      increment = Increment(entry.path);
      objective = ctx_->Objective(entry.path.demand(), increment);
    }
    entry.objective = objective;
    MaybeUpdateBest(entry.path, entry.objective, OnlineOnly(increment));
    FurtherExpansion(std::move(entry));
  }

  // ETA-AN: enqueue every feasible single-edge extension at both ends.
  //
  // Note the loop runs both ends for single-edge paths too. It used to
  // `break` after the end side on the claim that "both ends are
  // equivalent", which is unsound: edges are stored with a fixed
  // orientation (candidates have u < v), so a seed (m, v) only ever
  // end-extends at v — a 2-edge path whose edges share their *begin*
  // stop m (e.g. x–m–v with m the lower endpoint of both candidates) was
  // never generated from ANY seed, and since longer paths only grow from
  // these, such optima were unreachable outright. Expanding both ends
  // restores completeness at a cost: a 2-edge path reachable from both of
  // its seeds (end-extension of one, begin-extension of the other) is now
  // generated twice, with the duplicate pruned only after its evaluation.
  // Convergent rediscovery like this is pre-existing (seeds sharing their
  // upper endpoint already collided) and is exactly what the domination
  // table is for; the alternative — keeping only begin-extensions that no
  // end-extension can produce — would lose paths whose other edge is not
  // itself seeded.
  // See EtaAllNeighborsTest.ExpandsBeginSideOfSingleEdgeSeeds.
  void ExpandAllNeighbors(const QueueEntry& entry) {
    for (const int at_stop :
         {entry.path.end_stop(), entry.path.begin_stop()}) {
      const std::vector<int> extensions =
          FeasibleExtensions(entry.path, at_stop);
      std::vector<CandidatePath> children;
      std::vector<double> objectives;
      std::vector<double> increments;
      EvaluateExtensions(entry.path, at_stop, extensions, &children,
                         &objectives, &increments);
      // The pruning pass stays serial and in candidate order: objectives
      // never depend on the incumbent, so evaluating them up front (and,
      // with a pool, concurrently) leaves best_objective_'s evolution —
      // and therefore every bound/domination decision — exactly as the
      // classic one-candidate-at-a-time loop had it.
      for (std::size_t i = 0; i < extensions.size(); ++i) {
        QueueEntry child;
        child.path = std::move(children[i]);
        child.bound_state = bound_.Append(entry.bound_state, extensions[i]);
        child.objective = objectives[i];
        MaybeUpdateBest(child.path, child.objective,
                        OnlineOnly(increments[i]));
        FurtherExpansion(std::move(child));
      }
    }
  }

  // Returns the feasible extension edge with the highest resulting
  // objective, or -1. Ties go to the earliest feasible candidate, matching
  // the serial scan order at any eta_threads setting. In kOnline mode a
  // found edge's objective and online increment go to *objective and
  // *increment; kPrecomputed leaves them alone.
  int BestExtension(const CandidatePath& path, int at_stop, double* objective,
                    double* increment) {
    if (mode_ == SearchMode::kPrecomputed) {
      // Section 6.2: rank neighbors directly by L_e, in one pass over the
      // incident edges. Feasibility is only checked for an edge that would
      // beat the current best; an edge that merely ties it loses to the
      // earlier one either way.
      const demand::RankedList& scores = ctx_->objective_list();
      int best = -1;
      double best_score = 0.0;
      for (const int e : ctx_->universe().IncidentEdges(at_stop)) {
        if (!EdgeAllowed(e)) continue;
        const double score = scores.ValueOf(e);
        if (best >= 0 && !(score > best_score)) continue;
        if (!path.CanExtend(ctx_->universe(), ctx_->transit(), e, at_stop)) {
          continue;
        }
        best = e;
        best_score = score;
      }
      return best;
    }
    const std::vector<int> extensions = FeasibleExtensions(path, at_stop);
    if (extensions.empty()) return -1;
    // Line 10: one Lanczos estimate per neighbor, fanned over the pool.
    std::vector<double> values;
    std::vector<double> increments;
    EvaluateExtensions(path, at_stop, extensions, /*children=*/nullptr,
                       &values, &increments);
    int best = 0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      if (values[i] > values[best]) best = static_cast<int>(i);
    }
    *objective = values[best];
    *increment = increments[best];
    return extensions[best];
  }

  // Objectives of `path` extended by each edge of `extensions` at
  // `at_stop`, written into `objectives` with the connectivity increments
  // they were scored with in `increments` (and the extended paths into
  // `children`, when requested). With a pool (kOnline, eta_threads > 1)
  // the evaluations fan out over its workers; each one only reads the
  // context (PlanningContext::OnlineConnectivityIncrement), and every
  // result lands in its own index, so the output does not depend on
  // eta_threads.
  void EvaluateExtensions(const CandidatePath& path, int at_stop,
                          const std::vector<int>& extensions,
                          std::vector<CandidatePath>* children,
                          std::vector<double>* objectives,
                          std::vector<double>* increments) {
    const int n = static_cast<int>(extensions.size());
    objectives->resize(n);
    increments->resize(n);
    if (children != nullptr) children->resize(n);
    const auto evaluate_one = [&](int i) {
      CandidatePath extended = path;
      extended.Extend(ctx_->universe(), ctx_->transit(), extensions[i],
                      at_stop);
      const double increment = Increment(extended);  // Line 10
      (*increments)[i] = increment;
      (*objectives)[i] = ctx_->Objective(extended.demand(), increment);
      if (children != nullptr) (*children)[i] = std::move(extended);
    };
    if (pool_ != nullptr && n > 1) {
      pool_->Run(n, [&](int /*shard*/, int begin, int end) {
        for (int i = begin; i < end; ++i) evaluate_one(i);
      });
    } else {
      for (int i = 0; i < n; ++i) evaluate_one(i);
    }
  }

  // Lines 28-34: feasibility gate, bound refresh, domination check, enqueue.
  void FurtherExpansion(QueueEntry entry) {
    if (entry.path.closed()) return;  // loops cannot grow further
    if (entry.path.turns() >= options_.max_turns) return;
    if (entry.path.num_edges() >= options_.k) return;
    entry.upper_bound = UpperBound(entry.bound_state);
    if (entry.upper_bound <= best_objective_) return;
    if (options_.use_domination_table &&
        !domination_.CheckAndUpdate(entry.path.begin_edge(),
                                    entry.path.end_edge(), entry.objective)) {
      return;
    }
    Push(std::move(entry));
  }

  // The frontier is a max-heap on O_up kept with push_heap/pop_heap —
  // exactly the operations std::priority_queue performs, so the pop order
  // is the same — except that the popped entry is moved out instead of
  // copied from top().
  void Push(QueueEntry entry) {
    queue_.push_back(std::move(entry));
    std::push_heap(queue_.begin(), queue_.end());
  }

  QueueEntry PopBest() {
    std::pop_heap(queue_.begin(), queue_.end());
    QueueEntry entry = std::move(queue_.back());
    queue_.pop_back();
    return entry;
  }

  // Report the winner's online connectivity increment (both modes report
  // the Lanczos-estimated increment, as the paper does for ETA-Pre's last
  // point in Figure 9). An incumbent kOnline already scored online keeps
  // that estimate — the same bits a re-estimate would give; ETA-Pre's
  // winners and online ETA's seeds are estimated here.
  void FinalizeResult() {
    if (!result_.found) return;
    result_.demand = result_.path.demand();
    result_.connectivity_increment =
        best_online_increment_.has_value()
            ? *best_online_increment_
            : ctx_->OnlineConnectivityIncrement(result_.path.edges());
    result_.objective =
        ctx_->Objective(result_.demand, result_.connectivity_increment);
  }

  const PlanningContext* ctx_;
  SearchMode mode_;
  const CtBusOptions& options_;
  /// Persistent frontier-evaluation pool; null in kPrecomputed mode and
  /// whenever eta_threads resolves to 1 (the serial fast path).
  std::unique_ptr<WorkerPool> pool_;
  demand::IncrementalDemandBound bound_;
  DominationTable domination_;
  std::vector<QueueEntry> queue_;
  PlanResult result_;
  double best_objective_ = 0.0;
  /// The online increment the incumbent was scored with (see
  /// MaybeUpdateBest); nullopt until an online-scored path leads.
  std::optional<double> best_online_increment_;
  /// Lemma 4 bound on any path's connectivity increment; only kOnline's
  /// UpperBound reads it, so ETA-Pre never triggers the context's
  /// eigen-solve.
  const double lambda_increment_bound_ =
      mode_ == SearchMode::kOnline
          ? ctx_->PathConnectivityIncrementBound(options_.k)
          : 0.0;
};

}  // namespace

PlanResult RunEta(const PlanningContext* context, SearchMode mode) {
  return EtaSearch(context, mode).Run();
}

}  // namespace ctbus::core
