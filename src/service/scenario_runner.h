// Scenario runner: fans a (k, w, planner) parameter sweep out over the
// PlanningService worker pool against one pinned snapshot.
//
// All cells share the snapshot version resolved at launch, so a concurrent
// CommitRoute cannot split the sweep across city states; and because the
// precompute key is independent of k / w / planner, the whole sweep costs
// one precompute (the first cell misses, every other cell hits the cache).
//
// Cells are submitted at sweep priority by default (SweepSpec::priority):
// the service batches them per precompute key — one worker resolves the
// precompute once, then every free worker of the shard plans the cells —
// and always serves interactive requests first, so a long exploratory
// sweep cannot starve interactive traffic sharing the dataset's shard.
//
// Thread-safety: a ScenarioRunner is a thin stateless fan-out over the
// (thread-safe) PlanningService it borrows; distinct runners may share one
// service, and Run may be called concurrently. The service must outlive
// the runner.
#ifndef CTBUS_SERVICE_SCENARIO_RUNNER_H_
#define CTBUS_SERVICE_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "service/planning_service.h"

namespace ctbus::service {

struct SweepSpec {
  std::string dataset;
  /// Template for every cell; k / w / planner are overridden per cell.
  core::CtBusOptions base;
  /// Swept values. An empty axis means "just the base value".
  std::vector<int> ks;
  std::vector<double> ws;
  std::vector<core::Planner> planners;
  /// Snapshot to sweep against; 0 = latest, resolved once at launch.
  std::uint64_t snapshot_version = 0;
  /// Queue class for every cell. Sweeps default to the background class so
  /// they yield to interactive requests; pass Priority::kInteractive for a
  /// sweep the user is actively waiting on.
  Priority priority = Priority::kSweep;
};

struct SweepCell {
  int k = 0;
  double w = 0.0;
  core::Planner planner = core::Planner::kEtaPre;
  ServiceResult result;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(PlanningService* service) : service_(service) {}

  /// Submits every (k, w, planner) combination and gathers the results in
  /// submission order. Throws if any cell fails.
  std::vector<SweepCell> Run(const SweepSpec& spec);

 private:
  PlanningService* service_;
};

}  // namespace ctbus::service

#endif  // CTBUS_SERVICE_SCENARIO_RUNNER_H_
