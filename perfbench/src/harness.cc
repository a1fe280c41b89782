#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("Percentile of nothing");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool PercentileSupported(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= 10;
}

std::size_t MinSamplesFor(double p) {
  std::size_t n = 1;
  while (!PercentileSupported(n, p)) ++n;
  return n;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Placement CurrentPlacement() {
  Placement placement;
  placement.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return placement;
  placement.allowed_cpus = CPU_COUNT(&set);
  // Compress the mask into ranges: "0-3", "0,2".
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (!placement.mask.empty()) placement.mask += ",";
      placement.mask += std::to_string(run_start);
      if (cpu - 1 > run_start) placement.mask += "-" + std::to_string(cpu - 1);
      run_start = -1;
    }
  }
  return placement;
}

Phase PhaseClock::Stop(std::string name, int threads) const {
  Phase phase;
  phase.name = std::move(name);
  phase.threads = threads;
  phase.wall_seconds = NowSeconds() - wall_;
  phase.cpu_seconds = ProcessCpuSeconds() - cpu_;
  return phase;
}

void Tally(RunResult* result, const Verdict& verdict, std::uint64_t checksum) {
  ++result->attempted;
  result->checksum_fold = Fold(result->checksum_fold, checksum);
  if (verdict.ok) return;
  ++result->failed;
  if (verdict.wrong) {
    ++result->wrong;
    result->correct = false;
  }
  if (result->notes.size() < 8) result->notes.push_back(verdict.why);
}

std::uint64_t SpanLog::Add(std::string name, double start, double end,
                           std::uint64_t parent, std::uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace_id = trace_id;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<SpanRecord> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::WriteJsonLines(std::ostream& out) const {
  char line[512];
  for (const SpanRecord& span : Spans()) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,\"name\":\"%s\","
                  "\"start\":%.9f,\"end\":%.9f}\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.trace_id),
                  span.name.c_str(), span.start, span.end);
    out << line;
  }
}

std::uint64_t ScopedSpan::End() {
  if (ended_) return id_;
  ended_ = true;
  if (log_ != nullptr) {
    id_ = log_->Add(std::move(name_), start_, NowSeconds(), parent_,
                    trace_id_);
  }
  return id_;
}

double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              CoveredSeconds(children[i], spans[i].start, spans[i].end);
  }
  return self;
}

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Draw> MakeDraws(Mix mix, std::uint64_t seed, std::size_t n) {
  // One block holds every (k, w) cell once (online) or three times, twice
  // as ETA-Pre and once as vk-TSP (interactive), in a seeded order. Seeds
  // then differ in order only, never in the mix a percentile is taken over.
  std::vector<Draw> block;
  for (int k : kGridK) {
    for (double w : kGridW) {
      if (mix == Mix::kOnline) {
        block.push_back({k, w, Mode::kOnline});
      } else {
        block.push_back({k, w, Mode::kEtaPre});
        block.push_back({k, w, Mode::kEtaPre});
        block.push_back({k, w, Mode::kVkTsp});
      }
    }
  }
  SplitMix64 rng(seed ^ (mix == Mix::kInteractive ? 0x1a7e5ULL : 0x0e7aULL));
  std::vector<Draw> draws;
  draws.reserve(n + block.size());
  while (draws.size() < n) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.Below(i)]);
    }
    draws.insert(draws.end(), block.begin(), block.end());
  }
  draws.resize(n);
  return draws;
}

std::string SerializeDraws(const std::vector<Draw>& draws) {
  std::string out;
  char line[64];
  for (const Draw& draw : draws) {
    std::snprintf(line, sizeof(line), "%d %.17g %d\n", draw.k, draw.w,
                  static_cast<int>(draw.mode));
    out += line;
  }
  return out;
}

std::uint64_t Fold(std::uint64_t acc, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (value >> (8 * i)) & 0xffU;
    acc *= 1099511628211ULL;
  }
  return acc;
}

}  // namespace perfbench
