// The three CT-Bus benchmark workloads (see perfbench/README.md for why
// each exists and which layer metric should move which end-to-end metric).
#ifndef CTBUS_PERFBENCH_WORKLOADS_H_
#define CTBUS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // interactive | online_eta | sweep_commit
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the run's snapshot and spill files (created,
  /// and removed again when the run ends).
  std::string state_dir;
  /// Where the traced run writes its spans as JSON lines ("" = nowhere).
  std::string spans_out;
};

bool IsWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Untraced runs fill the end-to-end
/// metrics; traced runs fill the per-layer metrics.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // CTBUS_PERFBENCH_WORKLOADS_H_
