// ctbus_perfbench: runs one CT-Bus benchmark workload (or all of them)
// against the real serving stack and prints every metric with its unit.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   ctbus_perfbench --workload interactive|online_eta|sweep_commit|all
//                   --seed N --seconds S --trace 0|1
//                   [--state-dir DIR] [--spans-dir DIR]
//
// Exit codes: 0 all answers correct; 1 a wrong answer (the JSON line is
// still printed); 2 bad arguments or a run that could not be measured.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"
#include "io/parse.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ctbus_perfbench --workload "
               "interactive|online_eta|sweep_commit|all --seed N "
               "--seconds S --trace 0|1 [--state-dir DIR] "
               "[--spans-dir DIR]\n");
}

void PrintReport(const perfbench::RunConfig& config,
                 const perfbench::RunResult& result) {
  const perfbench::Placement placement = perfbench::CurrentPlacement();
  std::printf("== %s  seed %llu  %s  (%.0f s)\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced", config.seconds);
  std::printf("placement: nproc %d, affinity %s (%d cpus)\n", placement.nproc,
              placement.mask.c_str(), placement.allowed_cpus);
  for (const perfbench::Phase& phase : result.phases) {
    std::printf("phase %-18s wall %8.3f s  cpu %8.3f s  parallelism %5.2f  "
                "threads %d%s\n",
                phase.name.c_str(), phase.wall_seconds, phase.cpu_seconds,
                phase.parallelism(), phase.threads,
                phase.Flagged() ? "  FLAG: parallelism near 1.0" : "");
  }
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const double error_share =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::printf("  %-40s %14.6g fraction\n", "error_share", error_share);
  std::printf("answers: %llu attempted, %llu failed, %llu wrong; "
              "response-checksum fold %016llx\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.wrong),
              static_cast<unsigned long long>(result.checksum_fold));
  for (const std::string& note : result.notes) {
    std::printf("  failure: %s\n", note.c_str());
  }
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig base;
  base.state_dir = ".bench_build/perfbench/state";
  std::string workload;
  std::string spans_dir = ".bench_build/perfbench/spans";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    long long seed = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = ctbus::io::ParseInt64(value, &seed) && seed >= 0;
      base.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      have_seconds = ctbus::io::ParseDouble(value, &base.seconds) &&
                     base.seconds > 0.0 && base.seconds <= 600.0;
    } else if (flag == "--trace") {
      base.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--state-dir") {
      base.state_dir = value;
    } else if (flag == "--spans-dir") {
      spans_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      (workload != "all" && !perfbench::IsWorkload(workload))) {
    Usage();
    return 2;
  }
  const std::vector<std::string> workloads =
      workload == "all" ? perfbench::WorkloadNames()
                        : std::vector<std::string>{workload};

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<perfbench::Metric> last_metrics;
  for (const std::string& name : workloads) {
    perfbench::RunConfig config = base;
    config.workload = name;
    config.state_dir =
        base.state_dir + "/" + name + "-" + std::to_string(getpid());
    if (config.trace) {
      config.spans_out =
          spans_dir + "/" + name + "-seed" + std::to_string(config.seed) + ".jsonl";
    }
    std::error_code ignored;
    std::filesystem::remove_all(config.state_dir, ignored);
    perfbench::RunResult result;
    try {
      result = perfbench::RunWorkload(config);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: run could not be measured: %s\n",
                   name.c_str(), e.what());
      std::filesystem::remove_all(config.state_dir, ignored);
      return 2;
    }
    std::filesystem::remove_all(config.state_dir, ignored);
    PrintReport(config, result);
    correct = correct && result.correct;
    attempted += result.attempted;
    failed += result.failed;
    last_metrics = result.metrics;
  }
  // With one workload the JSON carries its metrics; "all" prints the
  // per-workload tables above and a combined verdict.
  PrintJson(correct, attempted, failed,
            workloads.size() == 1 ? last_metrics
                                  : std::vector<perfbench::Metric>{});
  std::fflush(stdout);
  return correct ? 0 : 1;
}
