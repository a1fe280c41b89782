#include "oracle.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/baselines.h"
#include "core/parallel_for.h"

namespace perfbench {

namespace core = ctbus::core;

core::PlanResult ReferencePlan(const ctbus::graph::RoadNetwork& road,
                               const ctbus::graph::TransitNetwork& transit,
                               core::CtBusOptions options,
                               const core::Precompute& precompute,
                               core::Planner planner) {
  options.eta_threads = 1;
  options.precompute_threads = 1;
  const core::PlanningContext context =
      core::PlanningContext::BuildWithPrecompute(road, transit, options,
                                                 precompute);
  switch (planner) {
    case core::Planner::kEta:
      return core::RunEta(&context, core::SearchMode::kOnline);
    case core::Planner::kEtaPre:
      return core::RunEta(&context, core::SearchMode::kPrecomputed);
    case core::Planner::kVkTsp:
      return core::RunVkTsp(&context);
  }
  throw std::invalid_argument("ReferencePlan: unknown planner");
}

std::uint64_t PlanChecksum(const core::PlanResult& plan,
                           std::uint64_t version) {
  ctbus::service::ServiceResult result;
  result.plan = plan;
  result.stats.snapshot_version = version;
  return ctbus::net::ResponseChecksum(ctbus::net::MakeOkResponse(0, result));
}

bool StructurallyValid(bool found, const std::vector<int>& edges,
                       const std::vector<int>& stops, int k,
                       const core::EdgeUniverse& universe, std::string* why) {
  if (!found) {
    *why = "no route found";
    return false;
  }
  if (edges.empty() || static_cast<int>(edges.size()) > k) {
    *why = "route has " + std::to_string(edges.size()) + " edges, budget " +
           std::to_string(k);
    return false;
  }
  if (stops.size() != edges.size() + 1) {
    *why = "route is not contiguous (" + std::to_string(stops.size()) +
           " stops for " + std::to_string(edges.size()) + " edges)";
    return false;
  }
  // A route may close into a loop (last stop = first stop, >= 3 edges,
  // core/path_state.cc); no other stop repeats.
  const bool loop = stops.size() >= 4 && stops.front() == stops.back();
  std::set<int> seen;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const int stop = stops[i];
    if (stop < 0 || stop >= universe.num_stops()) {
      *why = "stop " + std::to_string(stop) + " does not exist";
      return false;
    }
    if (!seen.insert(stop).second && !(loop && i + 1 == stops.size())) {
      *why = "stop " + std::to_string(stop) + " repeats";
      return false;
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const int e = edges[i];
    if (e < 0 || e >= universe.num_edges()) {
      *why = "edge " + std::to_string(e) + " does not exist";
      return false;
    }
    const core::PlannableEdge& edge = universe.edge(e);
    if (std::minmax(edge.u, edge.v) != std::minmax(stops[i], stops[i + 1])) {
      *why = "edge " + std::to_string(e) + " does not join stops " +
             std::to_string(stops[i]) + " and " + std::to_string(stops[i + 1]);
      return false;
    }
  }
  return true;
}

namespace {

// Fills `verdict` and returns true when nothing OK was delivered: no
// answer, or a non-OK status. Those fail without being wrong.
bool Undelivered(bool answered, const std::string& error,
                 const ctbus::net::ResponseFrame& response, Verdict* verdict) {
  if (!answered) {
    verdict->why = error.empty() ? "no answer" : error;
    return true;
  }
  if (response.status != ctbus::net::ResponseStatus::kOk) {
    verdict->why = std::string("status ") +
                   ctbus::net::ResponseStatusName(response.status) + ": " +
                   response.message;
    return true;
  }
  return false;
}

}  // namespace

Verdict CheckDerived(bool answered, const std::string& error,
                     const ctbus::net::ResponseFrame& response,
                     std::uint64_t version, int k,
                     const core::EdgeUniverse& universe) {
  Verdict verdict;
  if (Undelivered(answered, error, response, &verdict)) return verdict;
  if (response.snapshot_version != version) {
    verdict.why = "answered on version " +
                  std::to_string(response.snapshot_version) + ", asked for " +
                  std::to_string(version);
  } else if (StructurallyValid(response.found, response.edges, response.stops,
                               k, universe, &verdict.why)) {
    verdict.ok = true;
    return verdict;
  }
  verdict.wrong = true;
  return verdict;
}

int ParallelReferences(std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  const int threads = static_cast<int>(std::max<std::size_t>(
      1, std::min<std::size_t>(
             {n, 4, static_cast<std::size_t>(core::ResolveThreadCount(0))})));
  core::ParallelFor(static_cast<int>(n), threads,
                    [&](int /*shard*/, int begin, int end) {
                      for (int i = begin; i < end; ++i) fn(i);
                    });
  return threads;
}

int Oracle::Prepare(
    const core::CtBusOptions& base,
    const std::vector<std::tuple<int, double, core::Planner>>& cells) {
  std::vector<core::PlanResult> plans(cells.size());
  const int threads = ParallelReferences(cells.size(), [&](std::size_t i) {
    core::CtBusOptions options = base;
    options.k = std::get<0>(cells[i]);
    options.w = std::get<1>(cells[i]);
    plans[i] = ReferencePlan(road_, transit_, options, precompute_,
                             std::get<2>(cells[i]));
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& [k, w, planner] = cells[i];
    plans_[Key{k, w, static_cast<int>(planner)}] = std::move(plans[i]);
  }
  return threads;
}

const core::PlanResult& Oracle::Plan(int k, double w,
                                     core::Planner planner) const {
  const auto it = plans_.find(Key{k, w, static_cast<int>(planner)});
  if (it == plans_.end()) throw std::logic_error("Oracle: cell not prepared");
  return it->second;
}

std::uint64_t Oracle::Expected(int k, double w, core::Planner planner) const {
  return PlanChecksum(Plan(k, w, planner), version_);
}

Verdict Oracle::Check(bool answered, const std::string& error,
                      const ctbus::net::ResponseFrame& response, int k,
                      double w, core::Planner planner) const {
  Verdict verdict;
  if (Undelivered(answered, error, response, &verdict)) return verdict;
  if (ctbus::net::ResponseChecksum(response) != Expected(k, w, planner)) {
    verdict.wrong = true;
    verdict.why = "answer differs from the serial reference (k=" +
                  std::to_string(k) + ", w=" + std::to_string(w) + ")";
    return verdict;
  }
  verdict.ok = true;
  return verdict;
}

}  // namespace perfbench
