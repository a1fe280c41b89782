// Answer oracle: a serial in-process reference built by calling core
// directly on the served snapshot and precompute. Where the repo promises
// bit-identity (ETA-Pre, vk-TSP, online ETA at any eta_threads, snapshot-
// or spill-loaded precompute) an answer must match the reference's wire
// checksum exactly; on derived precomputes, which are approximate by
// design (docs/PRECOMPUTE.md), the check is structural.
#ifndef CTBUS_PERFBENCH_ORACLE_H_
#define CTBUS_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/edge_universe.h"
#include "core/eta.h"
#include "core/planner.h"
#include "core/planning_context.h"
#include "graph/road_network.h"
#include "graph/transit_network.h"
#include "harness.h"
#include "net/frame.h"
#include "service/planning_service.h"

namespace perfbench {

/// Serial reference answer: private context over `precompute`, planner run
/// with eta_threads = 1 and precompute_threads = 1.
ctbus::core::PlanResult ReferencePlan(const ctbus::graph::RoadNetwork& road,
                                      const ctbus::graph::TransitNetwork& transit,
                                      ctbus::core::CtBusOptions options,
                                      const ctbus::core::Precompute& precompute,
                                      ctbus::core::Planner planner);

/// Wire checksum of a plan answered on `version` (net::ResponseChecksum of
/// the response the front door would send for it).
std::uint64_t PlanChecksum(const ctbus::core::PlanResult& plan,
                           std::uint64_t version);

/// Structural validity of a route planned with budget k over `universe`
/// (the plannable-edge universe of the version and tau it was planned
/// on): found, 1..k edges, edges + 1 stops, every edge id exists and edge
/// i joins stops i and i + 1, every stop exists and none repeats, except
/// that a route of >= 3 edges may close into a loop. `why` names the first
/// violation.
bool StructurallyValid(bool found, const std::vector<int>& edges,
                       const std::vector<int>& stops, int k,
                       const ctbus::core::EdgeUniverse& universe,
                       std::string* why);

/// Verdict on an answer planned over a derived precompute, which
/// docs/PRECOMPUTE.md promises only approximately: `answered` is false
/// when nothing was delivered (`error` says why); an OK answer is wrong
/// unless it is on `version` and StructurallyValid over `universe`.
Verdict CheckDerived(bool answered, const std::string& error,
                     const ctbus::net::ResponseFrame& response,
                     std::uint64_t version, int k,
                     const ctbus::core::EdgeUniverse& universe);

/// Runs fn(0..n-1) through core::ParallelFor on min(n, 4, hardware
/// threads) threads (each reference is serial, so references run side by
/// side). Returns the thread count used.
int ParallelReferences(std::size_t n,
                       const std::function<void(std::size_t)>& fn);

/// Expected checksums for the (k, w, planner) cells of one precompute key
/// on one version, computed serially once per cell.
class Oracle {
 public:
  Oracle(const ctbus::graph::RoadNetwork& road,
         const ctbus::graph::TransitNetwork& transit,
         const ctbus::core::Precompute& precompute, std::uint64_t version)
      : road_(road), transit_(transit), precompute_(precompute),
        version_(version) {}

  /// Computes every listed cell's reference (cells run concurrently; each
  /// reference itself is serial). Returns the thread count used.
  int Prepare(const ctbus::core::CtBusOptions& base,
              const std::vector<std::tuple<int, double, ctbus::core::Planner>>& cells);

  /// Expected checksum of a prepared cell (throws if not prepared).
  std::uint64_t Expected(int k, double w, ctbus::core::Planner planner) const;

  /// The prepared reference plan of a cell.
  const ctbus::core::PlanResult& Plan(int k, double w,
                                      ctbus::core::Planner planner) const;

  /// Verdict on an answer to a prepared cell: `answered` is false when
  /// nothing was delivered (`error` says why); an OK answer is wrong
  /// unless it is bit-identical to the reference.
  Verdict Check(bool answered, const std::string& error,
                const ctbus::net::ResponseFrame& response, int k, double w,
                ctbus::core::Planner planner) const;

 private:
  using Key = std::tuple<int, double, int>;
  const ctbus::graph::RoadNetwork& road_;
  const ctbus::graph::TransitNetwork& transit_;
  const ctbus::core::Precompute& precompute_;
  std::uint64_t version_;
  std::map<Key, ctbus::core::PlanResult> plans_;
};

}  // namespace perfbench

#endif  // CTBUS_PERFBENCH_ORACLE_H_
