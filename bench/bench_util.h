// Shared helpers for the experiment harness. Every bench binary regenerates
// one table or figure of the paper; these helpers standardize dataset
// scaling, planner options, paper-vs-measured output framing, and the
// machine-readable BENCH_<name>.json reports the perf-trajectory CI job
// diffs across commits (tools/bench_diff.py).
//
// Environment knobs:
//   CTBUS_SCALE           dataset scale factor (default 1.0; paper ~7-20x)
//   CTBUS_ETA_ITERS       iteration cap for *online* ETA runs (default 100;
//                         the paper runs to convergence, which takes hours)
//   CTBUS_BENCH_JSON_DIR  when set, each bench writes
//                         <dir>/BENCH_<name>.json next to its stdout tables
#ifndef CTBUS_BENCH_BENCH_UTIL_H_
#define CTBUS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "core/timing.h"
#include "gen/datasets.h"
#include "io/parse.h"
#include "obs/json.h"

namespace ctbus::bench {

/// The bench suite's stopwatch is the repo-wide one (core/timing.h) — the
/// same type the serving layer and the obs span recorder time with.
using core::Stopwatch;

/// CPU seconds used so far by every thread of this process. Printed beside
/// wall time, CPU / wall is a section's achieved parallelism.
inline double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Strict env parsing: the whole value must parse (io::ParseDouble), so
/// "1.5x" or "fast" fall back to the default with a warning instead of
/// silently truncating to 1.5 / 0.0 the way strtod-based parsing did.
inline double GetEnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  if (!io::ParseDouble(value, &parsed)) {
    std::fprintf(stderr,
                 "warning: ignoring malformed %s=\"%s\" (using %g)\n", name,
                 value, fallback);
    return fallback;
  }
  return parsed;
}

inline std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

inline double GetScale() { return GetEnvDouble("CTBUS_SCALE", 1.0); }

inline int GetEtaIterations() {
  return static_cast<int>(GetEnvDouble("CTBUS_ETA_ITERS", 100));
}

/// Planner options tuned so the full bench suite reruns in minutes.
/// k, w, Tn, sn defaults follow the paper's underlined defaults
/// (k=30, w=0.5, Tn=3, sn=5000).
inline core::CtBusOptions BenchOptions() {
  core::CtBusOptions options;
  options.k = 30;
  options.w = 0.5;
  options.max_turns = 3;
  options.seed_count = 5000;
  options.max_iterations = 100000;
  options.online_estimator = {/*probes=*/50, /*lanczos_steps=*/10,
                              /*seed=*/1};
  options.precompute_estimator = {/*probes=*/8, /*lanczos_steps=*/8,
                                  /*seed=*/11};
  return options;
}

/// Runs the expensive pre-computation once per dataset and stamps out
/// sibling contexts for parameter sweeps (k / w / Tn / sn must be the only
/// differences; tau is fixed by the base options).
class ContextFactory {
 public:
  ContextFactory(const gen::Dataset& city, const core::CtBusOptions& base)
      : city_(&city),
        precompute_(core::PlanningContext::RunPrecompute(
            city.road, city.transit, base)) {}

  core::PlanningContext Make(const core::CtBusOptions& options) const {
    return core::PlanningContext::BuildWithPrecompute(
        city_->road, city_->transit, options, precompute_);
  }

 private:
  const gen::Dataset* city_;
  core::Precompute precompute_;
};

/// Standard experiment banner: what the paper reports, what we measure.
inline void PrintHeader(const char* experiment, const char* paper_claim) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("scale: %.2f (set CTBUS_SCALE to change)\n\n", GetScale());
}

inline void PrintDataset(const gen::Dataset& d) {
  std::printf("dataset %-13s |V|=%-6d |E|=%-6d |V_r|=%-5d |E_r|=%-5d "
              "|R|=%-3d len(R)=%.1f |D|=%lld\n",
              d.name.c_str(), d.road.graph().num_vertices(),
              d.road.graph().num_edges(), d.transit.num_stops(),
              d.transit.num_active_edges(), d.transit.num_active_routes(),
              d.transit.AverageRouteLength(),
              static_cast<long long>(d.num_trips));
}

/// Machine-readable bench result (schema "ctbus-bench-v1"), the unit
/// tools/bench_diff.py compares across commits:
///
///   {"schema": "ctbus-bench-v1", "bench": "<name>", "scale": 1.0,
///    "hardware": {"hardware_threads": 8, "build": "release"},
///    "datasets": [{"name": "...", "road_vertices": ..., ...}],
///    "metrics":   {"<metric>": {"value": 1.25, "better": "lower"}},
///    "checksums": {"<checksum>": 1234.5}}
///
/// Metrics carry a direction ("higher" / "lower" / "neutral") so the diff
/// tool knows which way a change is a regression without a side table;
/// checksums are planning-result fingerprints that must match EXACTLY
/// between runs at the same scale — a drifting checksum means results
/// changed, which no perf PR is allowed to do silently.
///
/// Keys are emitted in sorted order (std::map), so two reports of
/// identical results are byte-identical.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void AddMetric(const std::string& name, double value,
                 const std::string& better) {
    metrics_[name] = {value, better};
  }
  void AddChecksum(const std::string& name, double value) {
    checksums_[name] = value;
  }
  void AddDataset(const gen::Dataset& d) {
    DatasetShape shape;
    shape.name = d.name;
    shape.road_vertices = d.road.graph().num_vertices();
    shape.road_edges = d.road.graph().num_edges();
    shape.transit_stops = d.transit.num_stops();
    shape.transit_edges = d.transit.num_active_edges();
    shape.transit_routes = d.transit.num_active_routes();
    shape.trips = d.num_trips;
    datasets_.push_back(std::move(shape));
  }

  void Write(std::ostream& out) const {
    out << "{\"schema\": \"ctbus-bench-v1\", \"bench\": ";
    obs::WriteJsonString(out, name_);
    out << ", \"scale\": ";
    obs::WriteJsonDouble(out, GetScale());
    out << ", \"hardware\": {\"hardware_threads\": "
        << std::thread::hardware_concurrency() << ", \"build\": \""
#ifdef NDEBUG
        << "release"
#else
        << "debug"
#endif
        << "\"}, \"datasets\": [";
    const char* sep = "";
    for (const DatasetShape& d : datasets_) {
      out << sep << "{\"name\": ";
      obs::WriteJsonString(out, d.name);
      out << ", \"road_vertices\": " << d.road_vertices
          << ", \"road_edges\": " << d.road_edges
          << ", \"transit_stops\": " << d.transit_stops
          << ", \"transit_edges\": " << d.transit_edges
          << ", \"transit_routes\": " << d.transit_routes
          << ", \"trips\": " << d.trips << "}";
      sep = ", ";
    }
    out << "], \"metrics\": {";
    sep = "";
    for (const auto& [name, metric] : metrics_) {
      out << sep;
      obs::WriteJsonString(out, name);
      out << ": {\"value\": ";
      obs::WriteJsonDouble(out, metric.value);
      out << ", \"better\": ";
      obs::WriteJsonString(out, metric.better);
      out << "}";
      sep = ", ";
    }
    out << "}, \"checksums\": {";
    sep = "";
    for (const auto& [name, value] : checksums_) {
      out << sep;
      obs::WriteJsonString(out, name);
      out << ": ";
      obs::WriteJsonDouble(out, value);
      sep = ", ";
    }
    out << "}}\n";
  }

  /// Writes <dir>/BENCH_<name>.json when CTBUS_BENCH_JSON_DIR is set.
  /// Returns false (with a stderr warning) if the directory is set but
  /// unwritable; true otherwise — a bench run without the env var is not
  /// an error, the report is simply opt-in.
  bool WriteIfRequested() const {
    const char* dir = std::getenv("CTBUS_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return true;
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write bench report %s\n",
                   path.c_str());
      return false;
    }
    Write(out);
    std::printf("bench report: %s\n", path.c_str());
    return true;
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string better;  // "higher" | "lower" | "neutral"
  };
  struct DatasetShape {
    std::string name;
    int road_vertices = 0;
    int road_edges = 0;
    int transit_stops = 0;
    int transit_edges = 0;
    int transit_routes = 0;
    long long trips = 0;
  };

  std::string name_;
  std::vector<DatasetShape> datasets_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> checksums_;
};

}  // namespace ctbus::bench

#endif  // CTBUS_BENCH_BENCH_UTIL_H_
