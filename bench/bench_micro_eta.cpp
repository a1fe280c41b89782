// Micro-benchmarks for the planner internals: Algorithm 2's incremental
// demand bound vs the Equation 9 rescanning bound, domination-table
// pruning, the cost of a single online objective evaluation vs a
// linearized one, and the two halves of a precomputed-mode answer — the
// context build over a shared precompute, then the ETA-Pre or vk-TSP
// search. The Delta(e) precompute runs once, outside every timed loop.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/baselines.h"
#include "core/domination_table.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "demand/demand_bound.h"
#include "demand/ranked_list.h"
#include "gen/datasets.h"
#include "linalg/rng.h"

namespace {

const ctbus::gen::Dataset& SharedCity() {
  static const ctbus::gen::Dataset* city =
      new ctbus::gen::Dataset(ctbus::gen::MakeChicagoLike(0.5));
  return *city;
}

ctbus::core::CtBusOptions MicroOptions() {
  ctbus::core::CtBusOptions options;
  options.k = 20;
  options.online_estimator = {/*probes=*/50, /*lanczos_steps=*/10,
                              /*seed=*/1};
  options.precompute_estimator = {/*probes=*/8, /*lanczos_steps=*/8,
                                  /*seed=*/11};
  return options;
}

const std::shared_ptr<const ctbus::core::Precompute>& SharedPrecompute() {
  static const auto* precompute =
      new std::shared_ptr<const ctbus::core::Precompute>(
          std::make_shared<const ctbus::core::Precompute>(
              ctbus::core::PlanningContext::RunPrecompute(
                  SharedCity().road, SharedCity().transit, MicroOptions())));
  return *precompute;
}

ctbus::core::PlanningContext BuildContext() {
  return ctbus::core::PlanningContext::BuildWithPrecompute(
      SharedCity().road, SharedCity().transit, MicroOptions(),
      SharedPrecompute());
}

ctbus::core::PlanningContext& SharedContext() {
  static auto* ctx = new ctbus::core::PlanningContext(BuildContext());
  return *ctx;
}

void BM_IncrementalDemandBound(benchmark::State& state) {
  // Algorithm 2: O(1) per append.
  const auto& ctx = SharedContext();
  const ctbus::demand::IncrementalDemandBound bound(&ctx.demand_list(), 20);
  ctbus::linalg::Rng rng(1);
  const int n = ctx.demand_list().size();
  auto s = bound.SeedState(static_cast<int>(rng.NextIndex(n)));
  for (auto _ : state) {
    s = bound.Append(s, static_cast<int>(rng.NextIndex(n)));
    benchmark::DoNotOptimize(s.bound);
  }
}
BENCHMARK(BM_IncrementalDemandBound);

void BM_RescanDemandBound(benchmark::State& state) {
  // Equation 9 baseline: O(len + k) scan per call.
  const auto& ctx = SharedContext();
  const ctbus::demand::IncrementalDemandBound bound(&ctx.demand_list(), 20);
  ctbus::linalg::Rng rng(2);
  std::vector<int> path;
  for (int i = 0; i < 15; ++i) {
    path.push_back(static_cast<int>(rng.NextIndex(ctx.demand_list().size())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound.RescanBound(path));
  }
}
BENCHMARK(BM_RescanDemandBound);

void BM_OnlineObjectiveEvaluation(benchmark::State& state) {
  // One Lanczos-based connectivity evaluation (line 10 of Algorithm 1).
  auto& ctx = SharedContext();
  std::vector<int> new_edges;
  for (int e = 0; e < ctx.universe().num_edges() &&
                  static_cast<int>(new_edges.size()) < 10; ++e) {
    if (ctx.universe().edge(e).is_new) new_edges.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.OnlineConnectivityIncrement(new_edges));
  }
}
BENCHMARK(BM_OnlineObjectiveEvaluation);

void BM_LinearObjectiveEvaluation(benchmark::State& state) {
  // ETA-Pre's replacement: a ranked-list lookup sum.
  auto& ctx = SharedContext();
  std::vector<int> new_edges;
  for (int e = 0; e < ctx.universe().num_edges() &&
                  static_cast<int>(new_edges.size()) < 10; ++e) {
    if (ctx.universe().edge(e).is_new) new_edges.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.LinearConnectivityIncrement(new_edges));
  }
}
BENCHMARK(BM_LinearObjectiveEvaluation);

void BM_DominationTable(benchmark::State& state) {
  ctbus::core::DominationTable dt;
  ctbus::linalg::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dt.CheckAndUpdate(static_cast<int>(rng.NextIndex(2000)),
                          static_cast<int>(rng.NextIndex(2000)),
                          rng.NextDouble()));
  }
}
BENCHMARK(BM_DominationTable);

void BM_ContextBuildWithPrecompute(benchmark::State& state) {
  // The first half of a precomputed-mode answer: base estimate, ranked
  // lists and normalization over the shared precompute.
  SharedPrecompute();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildContext());
  }
}
BENCHMARK(BM_ContextBuildWithPrecompute)->Unit(benchmark::kMillisecond);

void BM_EtaPreFullSearch(benchmark::State& state) {
  // End-to-end ETA-Pre search (excluding context construction). The
  // search only touches the context's scratch state, so one context
  // serves every iteration.
  const auto& ctx = SharedContext();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctbus::core::RunEta(&ctx, ctbus::core::SearchMode::kPrecomputed));
  }
}
BENCHMARK(BM_EtaPreFullSearch)->Unit(benchmark::kMillisecond);

void BM_VkTspFullSearch(benchmark::State& state) {
  // End-to-end vk-TSP, including the derivation of its w = 1 sibling.
  const auto& ctx = SharedContext();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctbus::core::RunVkTsp(&ctx));
  }
}
BENCHMARK(BM_VkTspFullSearch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
