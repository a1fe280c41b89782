// Delta(e) accuracy against the exact oracle: how well each way of
// computing a candidate edge's connectivity increment ranks and sizes the
// candidates that ETA-Pre searches over.
//
// For an evenly spaced sample of the chicago preset's candidate (new)
// edges at tau = 500 m, the oracle is dense: NaturalConnectivityExact on
// A + e minus the same on A. Four methods are scored against it:
//   hutch_8x8     two Hutchinson estimates (8 probes x 8 Lanczos steps,
//                 the precompute estimator's defaults) differenced
//                 through common random numbers (connectivity::
//                 EdgeIncrement) — the old precompute;
//   hutch_50x10   the same at the online estimator's 50 x 10;
//   quadrature    the ball quadrature (connectivity::EdgeTraceIncrement)
//                 over the 8 x 8 estimate of tr e^A — the precompute;
//   quadrature_exact_trace  the same over the exact tr e^A, which
//                 separates the kernel's own error from the base trace's
//                 (every Delta(e) scales with 1 / tr e^A, so a base trace
//                 off by x% moves every value by about x% and no rank).
// Per method: mean absolute error, maximum error, Spearman rank
// correlation, top-10 / top-30 overlap with the exact ranking, and the
// cost of a full single-threaded loop over every candidate, extrapolated
// from the sample's per-edge time.
//
// Scales: chicago 0.5 and 1.0, or the single CTBUS_SCALE when set.
// CTBUS_ACCURACY_SAMPLES (default 100) sets the sample size per scale.
// Writes BENCH_increment_accuracy.json when CTBUS_BENCH_JSON_DIR is set.
// Exits 1 if the quadrature's Spearman falls below 0.99 or its MAE rises
// above 1e-4 at any scale — the accuracy gate CI runs at a small scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "connectivity/edge_increment.h"
#include "connectivity/natural_connectivity.h"
#include "core/edge_universe.h"
#include "eval/table.h"

namespace {

using ctbus::linalg::SymmetricSparseMatrix;

constexpr double kMinQuadratureSpearman = 0.99;
constexpr double kMaxQuadratureMae = 1e-4;

/// Average ranks (ties share the mean of their positions), ascending.
std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    const double rank = 0.5 * static_cast<double>(i + j);
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = rank;
    i = j + 1;
  }
  return ranks;
}

/// Pearson correlation of the average ranks.
double Spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = Ranks(a);
  const std::vector<double> rb = Ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean_a = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
  const double mean_b = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - mean_a) * (rb[i] - mean_b);
    var_a += (ra[i] - mean_a) * (ra[i] - mean_a);
    var_b += (rb[i] - mean_b) * (rb[i] - mean_b);
  }
  return var_a > 0.0 && var_b > 0.0 ? cov / std::sqrt(var_a * var_b) : 0.0;
}

/// Indices of the k largest values (ties to the lower index), sorted.
std::vector<int> TopK(const std::vector<double>& values, int k) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return values[a] > values[b]; });
  order.resize(std::min<std::size_t>(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

int Overlap(const std::vector<double>& a, const std::vector<double>& b,
            int k) {
  const std::vector<int> ta = TopK(a, k);
  const std::vector<int> tb = TopK(b, k);
  std::vector<int> common;
  std::set_intersection(ta.begin(), ta.end(), tb.begin(), tb.end(),
                        std::back_inserter(common));
  return static_cast<int>(common.size());
}

struct Method {
  std::string name;
  /// The value of one candidate.
  std::function<double(int u, int v)> increment;
};

struct Scored {
  double mae = 0.0;
  double max_error = 0.0;
  double spearman = 0.0;
  int top10 = 0;
  int top30 = 0;
  double full_loop_seconds = 0.0;
};

Scored Score(const Method& method,
             const std::vector<std::pair<int, int>>& sample,
             const std::vector<double>& exact, int num_candidates) {
  std::vector<double> values;
  values.reserve(sample.size());
  ctbus::bench::Stopwatch timer;
  for (const auto& [u, v] : sample) values.push_back(method.increment(u, v));
  const double per_edge = timer.Seconds() / static_cast<double>(sample.size());
  Scored s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double error = std::abs(values[i] - exact[i]);
    s.mae += error;
    s.max_error = std::max(s.max_error, error);
  }
  s.mae /= static_cast<double>(values.size());
  s.spearman = Spearman(values, exact);
  s.top10 = Overlap(values, exact, 10);
  s.top30 = Overlap(values, exact, 30);
  s.full_loop_seconds = per_edge * num_candidates;
  return s;
}

/// Scores every method at one scale; returns false if the quadrature
/// misses its accuracy gate.
bool RunScale(double scale, int samples, ctbus::bench::BenchReport* report,
              ctbus::eval::Table* table) {
  const ctbus::gen::Dataset city = ctbus::gen::MakeChicagoLike(scale);
  ctbus::bench::PrintDataset(city);
  report->AddDataset(city);
  ctbus::core::EdgeUniverseOptions universe_options;
  universe_options.tau = 500.0;
  const ctbus::core::EdgeUniverse universe =
      ctbus::core::EdgeUniverse::Build(city.road, city.transit,
                                       universe_options);
  std::vector<std::pair<int, int>> candidates;
  for (int e = 0; e < universe.num_edges(); ++e) {
    const ctbus::core::PlannableEdge& edge = universe.edge(e);
    if (edge.is_new) candidates.emplace_back(edge.u, edge.v);
  }
  const int num_candidates = static_cast<int>(candidates.size());
  const int stride = std::max(1, num_candidates / std::max(1, samples));
  std::vector<std::pair<int, int>> sample;
  for (int i = 0; i < num_candidates && static_cast<int>(sample.size()) <
                                            samples;
       i += stride) {
    sample.push_back(candidates[i]);
  }

  const SymmetricSparseMatrix adjacency = city.transit.AdjacencyMatrix();
  std::vector<double> exact;
  exact.reserve(sample.size());
  const double base_exact =
      ctbus::connectivity::NaturalConnectivityExact(adjacency);
  for (const auto& [u, v] : sample) {
    SymmetricSparseMatrix with_edge = adjacency;
    with_edge.Set(u, v, 1.0);
    exact.push_back(ctbus::connectivity::NaturalConnectivityExact(with_edge) -
                    base_exact);
  }

  const ctbus::core::CtBusOptions defaults;
  const ctbus::connectivity::ConnectivityEstimator precompute_estimator(
      adjacency.dim(), defaults.precompute_estimator);
  const ctbus::connectivity::ConnectivityEstimator online_estimator(
      adjacency.dim(), defaults.online_estimator);
  const double base_trace = precompute_estimator.EstimateTraceExp(adjacency);
  const double exact_trace = adjacency.dim() * std::exp(base_exact);
  const double base_lambda_8x8 = precompute_estimator.Estimate(adjacency);
  const double base_lambda_50x10 = online_estimator.Estimate(adjacency);

  const std::vector<Method> methods = {
      {"hutch_8x8",
       [&](int u, int v) {
         return ctbus::connectivity::EdgeIncrement(
             &adjacency, base_lambda_8x8, precompute_estimator, u, v);
       }},
      {"hutch_50x10",
       [&](int u, int v) {
         return ctbus::connectivity::EdgeIncrement(
             &adjacency, base_lambda_50x10, online_estimator, u, v);
       }},
      {"quadrature",
       [&](int u, int v) {
         return ctbus::connectivity::IncrementFromTrace(
             ctbus::connectivity::EdgeTraceIncrement(adjacency, u, v),
             base_trace);
       }},
      {"quadrature_exact_trace",
       [&](int u, int v) {
         return ctbus::connectivity::IncrementFromTrace(
             ctbus::connectivity::EdgeTraceIncrement(adjacency, u, v),
             exact_trace);
       }},
  };

  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "s%.2g_", scale);
  bool gate_ok = true;
  for (const Method& method : methods) {
    const Scored s = Score(method, sample, exact, num_candidates);
    using ctbus::eval::Table;
    table->AddRow({Table::Num(scale, 2), method.name,
                   Table::Int(static_cast<int>(sample.size())) + " / " +
                       Table::Int(num_candidates),
                   Table::Num(s.mae * 1e6, 2), Table::Num(s.max_error * 1e6, 2),
                   Table::Num(s.spearman, 3),
                   Table::Int(s.top10) + " / " + Table::Int(s.top30),
                   Table::Num(s.full_loop_seconds, 3)});
    const std::string key = prefix + method.name;
    report->AddMetric(key + "_mae", s.mae, "lower");
    report->AddMetric(key + "_max_error", s.max_error, "lower");
    report->AddMetric(key + "_spearman", s.spearman, "higher");
    report->AddMetric(key + "_top10_overlap", s.top10, "higher");
    report->AddMetric(key + "_top30_overlap", s.top30, "higher");
    report->AddMetric(key + "_full_loop_s", s.full_loop_seconds, "lower");
    if (method.name == "quadrature" &&
        (s.spearman < kMinQuadratureSpearman || s.mae > kMaxQuadratureMae)) {
      std::fprintf(stderr,
                   "accuracy gate FAILED at scale %g: quadrature Spearman "
                   "%.4f (>= %.2f required), MAE %.3g (<= %.0e required)\n",
                   scale, s.spearman, kMinQuadratureSpearman, s.mae,
                   kMaxQuadratureMae);
      gate_ok = false;
    }
  }
  return gate_ok;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Delta(e) accuracy vs the exact oracle",
      "ETA-Pre ranks candidate edges by a precomputed Delta(e) (Section 6)");
  std::vector<double> scales = {0.5, 1.0};
  if (std::getenv("CTBUS_SCALE") != nullptr) {
    scales = {ctbus::bench::GetScale()};
  }
  const int samples = static_cast<int>(
      ctbus::bench::GetEnvDouble("CTBUS_ACCURACY_SAMPLES", 100.0));

  ctbus::bench::BenchReport report("increment_accuracy");
  ctbus::eval::Table table({"scale", "method", "sample / candidates",
                            "MAE (1e-6)", "max err (1e-6)", "Spearman",
                            "top-10 / top-30", "full loop (s)"});
  bool gate_ok = true;
  for (double scale : scales) {
    gate_ok = RunScale(scale, samples, &report, &table) && gate_ok;
  }
  table.Print(std::cout);
  report.WriteIfRequested();
  if (!gate_ok) return 1;
  std::printf("accuracy gate: quadrature Spearman >= %.2f and MAE <= %.0e "
              "at every scale\n",
              kMinQuadratureSpearman, kMaxQuadratureMae);
  return 0;
}
