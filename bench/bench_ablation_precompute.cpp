// Ablation: Delta(e) pre-computation strategies.
//   (a) quadrature — one deterministic hop-ball Lanczos quadrature per
//       candidate edge over one estimated base trace (the default);
//   (b) perturbation — one top-eigenpair Lanczos run, then O(m) per edge
//       (the paper's Section 8 future work, implemented here).
// Compares pre-computation time, the agreement of the resulting rankings,
// and the end objective of the ETA-Pre route planned from each.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "core/eta.h"
#include "eval/table.h"

namespace {

void RunCity(const ctbus::gen::Dataset& city, ctbus::eval::Table* table) {
  ctbus::bench::PrintDataset(city);

  auto quadrature_options = ctbus::bench::BenchOptions();
  ctbus::bench::Stopwatch quadrature_timer;
  auto quadrature_pre = ctbus::core::PlanningContext::RunPrecompute(
      city.road, city.transit, quadrature_options);
  const double quadrature_seconds = quadrature_timer.Seconds();

  auto perturbation_options = ctbus::bench::BenchOptions();
  perturbation_options.use_perturbation_precompute = true;
  ctbus::bench::Stopwatch perturbation_timer;
  auto perturbation_pre = ctbus::core::PlanningContext::RunPrecompute(
      city.road, city.transit, perturbation_options);
  const double perturbation_seconds = perturbation_timer.Seconds();

  // Ranking agreement: overlap of the top-100 new edges by increment.
  auto top_edges = [](const ctbus::core::Precompute& pre) {
    std::vector<int> ids(pre.increments.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      return pre.increments[a] > pre.increments[b];
    });
    ids.resize(std::min<std::size_t>(100, ids.size()));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto top_a = top_edges(quadrature_pre);
  const auto top_b = top_edges(perturbation_pre);
  std::vector<int> common;
  std::set_intersection(top_a.begin(), top_a.end(), top_b.begin(),
                        top_b.end(), std::back_inserter(common));

  // End-to-end route quality from each pre-computation.
  auto plan = [&](ctbus::core::Precompute pre,
                  const ctbus::core::CtBusOptions& options) {
    auto ctx = ctbus::core::PlanningContext::BuildWithPrecompute(
        city.road, city.transit, options, std::move(pre));
    return ctbus::core::RunEta(&ctx, ctbus::core::SearchMode::kPrecomputed);
  };
  const auto route_a = plan(quadrature_pre, quadrature_options);
  const auto route_b = plan(perturbation_pre, perturbation_options);

  // Demand and the online-estimated connectivity increment are comparable
  // across strategies (each context's normalized objective is not, since
  // lambda_max differs with the increment scale).
  table->AddRow({city.name, "quadrature",
                 ctbus::eval::Table::Num(quadrature_pre.stats.increments_seconds, 3),
                 ctbus::eval::Table::Num(quadrature_seconds, 3),
                 ctbus::eval::Table::Int(static_cast<int>(common.size())),
                 ctbus::eval::Table::Num(route_a.connectivity_increment, 4),
                 ctbus::eval::Table::Num(route_a.demand / 1e6, 2)});
  table->AddRow({city.name, "perturbation",
                 ctbus::eval::Table::Num(
                     perturbation_pre.stats.increments_seconds, 3),
                 ctbus::eval::Table::Num(perturbation_seconds, 3),
                 "-",
                 ctbus::eval::Table::Num(route_b.connectivity_increment, 4),
                 ctbus::eval::Table::Num(route_b.demand / 1e6, 2)});
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Ablation: Delta(e) pre-computation — quadrature vs perturbation",
      "(extension) Section 8 future work: perturbation theory should cut "
      "the pre-computation cost while preserving route quality");
  const double scale = ctbus::bench::GetScale();
  ctbus::eval::Table table({"city", "strategy", "increments_s", "total_s",
                            "top100_overlap", "route_conn_incr",
                            "route_demand_M"});
  RunCity(ctbus::gen::MakeChicagoLike(scale), &table);
  RunCity(ctbus::gen::MakeNycLike(scale), &table);
  std::printf("\n");
  table.Print(std::cout);
  std::printf(
      "\nshape check: the perturbation pre-computation is a few times "
      "faster than the ball quadrature, but its first-order, "
      "top-eigenpair view re-orders the ranking (modest top-100 overlap; "
      "Spearman ~0.4-0.5 against the exact oracle where the quadrature "
      "reaches 1.000, see bench_increment_accuracy).\n");
  return 0;
}
