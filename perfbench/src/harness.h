// Measurement harness of the CT-Bus benchmark: nearest-rank percentiles
// with a sample-count rule, wall + process-CPU phase clocks, placement
// facts, answer accounting, an in-memory span log with self-time
// arithmetic, and the seeded request generator. Nothing here calls into
// the system under test, so the harness self-tests (perfbench/tests) cover
// it without a dataset.
#ifndef CTBUS_PERFBENCH_HARNESS_H_
#define CTBUS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile (p in (0, 100]) of `samples`: the value at rank
/// ceil(p/100 * n) of the sorted samples. Requires a non-empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median (nearest-rank p50, so always one of the samples).
double Median(std::vector<double> samples);

/// How many samples lie beyond the nearest-rank p-th percentile of n.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it (p50 of 21, p90 of 100, p95 of 200).
bool PercentileSupported(std::size_t n, double p);

/// Smallest sample count whose p-th percentile is supported.
std::size_t MinSamplesFor(double p);

// ---------------------------------------------------------------- clocks --

/// Seconds on one steady clock shared by every span and phase.
double NowSeconds();

/// Process CPU seconds (CLOCK_PROCESS_CPUTIME_ID), all threads.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB (getrusage maxrss).
double PeakRssMb();

/// Online processors and this process's sched_getaffinity mask, printed
/// beside every run so a run squeezed onto fewer CPUs stays visible.
struct Placement {
  int nproc = 0;
  int allowed_cpus = 0;
  std::string mask;  // e.g. "0-3"
};
Placement CurrentPlacement();

/// Wall and process-CPU time of one timed phase. `threads` is how many
/// threads the phase can keep busy; parallelism near 1.0 on a phase with
/// threads >= 2 is flagged (and kept) in the report.
struct Phase {
  std::string name;
  int threads = 1;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double parallelism() const {
    return wall_seconds > 0.0 ? cpu_seconds / wall_seconds : 0.0;
  }
  bool Flagged() const { return threads >= 2 && parallelism() < 1.2; }
};

class PhaseClock {
 public:
  PhaseClock() : wall_(NowSeconds()), cpu_(ProcessCpuSeconds()) {}
  Phase Stop(std::string name, int threads) const;

 private:
  double wall_;
  double cpu_;
};

// ------------------------------------------------------------ accounting --

/// FNV-1a 64 fold of a sequence of 64-bit values (the response-checksum
/// fold printed with every run).
std::uint64_t Fold(std::uint64_t acc, std::uint64_t value);
inline constexpr std::uint64_t kFoldSeed = 14695981039346656037ULL;

/// Outcome of checking one answer. A failure is `wrong` when the system
/// delivered an OK answer that the oracle rejects; other failures (nothing
/// delivered, a refusal, an error status) are only failed.
struct Verdict {
  bool ok = false;
  bool wrong = false;
  std::string why;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// False when any answer was wrong (the oracle rejected an OK answer).
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Failed, refused or wrong answers.
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  /// FNV fold of every answer's wire checksum, in check order.
  std::uint64_t checksum_fold = kFoldSeed;
  std::vector<Metric> metrics;
  std::vector<Phase> phases;
  std::vector<std::string> notes;
};

/// Counts one checked answer: attempted, folded into the checksum, and on
/// failure counted as failed; a wrong answer also clears `correct`.
void Tally(RunResult* result, const Verdict& verdict, std::uint64_t checksum);

// ----------------------------------------------------------------- spans --

/// One span: [start, end] on NowSeconds()'s clock. `parent` is the id of
/// the span that caused it (0 = root); spans of one request share
/// `trace_id`.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_id = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// Thread-safe in-memory span recorder; written out once at exit.
class SpanLog {
 public:
  /// Records a finished span and returns its id (ids start at 1).
  std::uint64_t Add(std::string name, double start, double end,
                    std::uint64_t parent, std::uint64_t trace_id);
  std::vector<SpanRecord> Spans() const;
  /// One JSON object per line: id, parent, trace, name, start, end.
  void WriteJsonLines(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: measures from construction to destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent = 0,
             std::uint64_t trace_id = 0)
      : log_(log), name_(std::move(name)), parent_(parent),
        trace_id_(trace_id), start_(NowSeconds()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Ends the span (idempotent) and returns its id (0 when no log).
  std::uint64_t End();
  double Seconds() const { return NowSeconds() - start_; }

 private:
  SpanLog* log_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t trace_id_;
  double start_;
  bool ended_ = false;
  std::uint64_t id_ = 0;
};

/// Length of the union of [start, end] intervals clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Self time of every span, index-aligned with `spans`: the span's
/// duration minus the part of it its direct children cover (children may
/// overlap one another; overlap is counted once).
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

// -------------------------------------------------------------- requests --

/// splitmix64: a fixed, platform-independent stream, so one seed yields
/// byte-identical inputs on every standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n) (n > 0).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// The paper-default what-if grid every workload draws from.
inline constexpr int kGridK[] = {10, 20, 30};
inline constexpr double kGridW[] = {0.3, 0.5, 0.7};

/// Planner of a drawn request (mirrors core::Planner without the include).
enum class Mode { kEtaPre, kVkTsp, kOnline };

struct Draw {
  int k = 0;
  double w = 0.0;
  Mode mode = Mode::kEtaPre;
};

/// Request mixes over the k x w grid: interactive is 2/3 ETA-Pre and 1/3
/// vk-TSP, online is all online ETA. Draws come in blocks that hold every
/// cell in fixed proportion; the seed drives the order within each block.
enum class Mix { kInteractive, kOnline };
std::vector<Draw> MakeDraws(Mix mix, std::uint64_t seed, std::size_t n);

/// Canonical bytes of a draw list (for the byte-identity self-test).
std::string SerializeDraws(const std::vector<Draw>& draws);

}  // namespace perfbench

#endif  // CTBUS_PERFBENCH_HARNESS_H_
