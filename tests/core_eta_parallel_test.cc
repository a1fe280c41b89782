// The determinism contract of parallel frontier expansion: RunEta in
// SearchMode::kOnline must produce bit-identical results at any
// CtBusOptions::eta_threads setting, for both expansion variants
// (best-neighbor and ETA-AN). Every worker estimates through the context's
// one immutable adjacency and estimator, and the candidate reduce replays
// the serial scan order, so threading must not move a single bit (see
// core/eta.h and docs/ARCHITECTURE.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/eta.h"
#include "core/planning_context.h"
#include "gen/datasets.h"

namespace ctbus::core {
namespace {

CtBusOptions TestOptions(bool best_neighbor_only) {
  CtBusOptions options;
  options.k = 8;
  options.max_turns = 3;
  options.seed_count = 60;
  options.max_iterations = 60;  // online search is the expensive mode
  options.online_estimator = {/*probes=*/8, /*lanczos_steps=*/6, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  options.best_neighbor_only = best_neighbor_only;
  options.trace_every = 7;  // include the trace in the identity check
  return options;
}

/// Exact equality on purpose, doubles included: concurrent evaluations
/// must reproduce the serial ones to the last bit.
void ExpectResultsIdentical(const PlanResult& a, const PlanResult& b,
                            int threads) {
  ASSERT_EQ(a.found, b.found) << "threads=" << threads;
  EXPECT_EQ(a.path.edges(), b.path.edges()) << "threads=" << threads;
  EXPECT_EQ(a.path.stops(), b.path.stops()) << "threads=" << threads;
  EXPECT_EQ(a.objective, b.objective) << "threads=" << threads;
  EXPECT_EQ(a.demand, b.demand) << "threads=" << threads;
  EXPECT_EQ(a.connectivity_increment, b.connectivity_increment)
      << "threads=" << threads;
  EXPECT_EQ(a.iterations, b.iterations) << "threads=" << threads;
  EXPECT_EQ(a.trace, b.trace) << "threads=" << threads;
}

/// A plan (the context itself does not outlive the run; its default
/// constructor is private).
struct RunOutcome {
  PlanResult result;
};

class EtaParallelTest : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new gen::Dataset(gen::MakeMidtown());
    // One shared precompute: the knob under test must not touch it, and
    // sharing keeps every context (hence every search) over identical
    // Delta(e) inputs.
    precompute_ = new std::shared_ptr<const Precompute>(
        std::make_shared<const Precompute>(PlanningContext::RunPrecompute(
            dataset_->road, dataset_->transit, TestOptions(true))));
  }
  static void TearDownTestSuite() {
    delete precompute_;
    precompute_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static RunOutcome Run(CtBusOptions options, int eta_threads,
                        SearchMode mode = SearchMode::kOnline) {
    options.eta_threads = eta_threads;
    const PlanningContext ctx = PlanningContext::BuildWithPrecompute(
        dataset_->road, dataset_->transit, options, *precompute_);
    RunOutcome out;
    out.result = RunEta(&ctx, mode);
    return out;
  }

  static gen::Dataset* dataset_;
  static std::shared_ptr<const Precompute>* precompute_;
};

gen::Dataset* EtaParallelTest::dataset_ = nullptr;
std::shared_ptr<const Precompute>* EtaParallelTest::precompute_ = nullptr;

TEST_P(EtaParallelTest, AnyThreadCountIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1);
  ASSERT_TRUE(serial.result.found);

  for (int threads : {2, 3, 8}) {
    const RunOutcome parallel = Run(options, threads);
    ExpectResultsIdentical(parallel.result, serial.result, threads);
  }
}

TEST_P(EtaParallelTest, HardwareConcurrencySettingIsBitIdenticalToSerial) {
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1);
  const RunOutcome hw = Run(options, /*eta_threads=*/0);
  ExpectResultsIdentical(hw.result, serial.result, /*threads=*/0);
}

TEST_P(EtaParallelTest, ReportedIncrementIsTheWinnersOnlineEstimate) {
  // kOnline reports the increment the search already estimated for its
  // winner instead of estimating it again; it must be the very value a
  // fresh estimate of the winning path gives, and the objective must be
  // scored from it.
  const CtBusOptions options = TestOptions(GetParam());
  const PlanningContext ctx = PlanningContext::BuildWithPrecompute(
      dataset_->road, dataset_->transit, options, *precompute_);
  for (int threads : {1, 2}) {
    const RunOutcome run = Run(options, threads);
    ASSERT_TRUE(run.result.found);
    ASSERT_GT(run.result.path.num_edges(), 1) << "threads=" << threads;
    EXPECT_EQ(run.result.connectivity_increment,
              ctx.OnlineConnectivityIncrement(run.result.path.edges()))
        << "threads=" << threads;
    EXPECT_EQ(run.result.objective,
              ctx.Objective(run.result.demand,
                            run.result.connectivity_increment))
        << "threads=" << threads;
  }
}

TEST_P(EtaParallelTest, PrecomputedModeNeverForks) {
  // ETA-Pre evaluates ranked-list lookups; eta_threads must be inert
  // there (identical results).
  const CtBusOptions options = TestOptions(GetParam());
  const RunOutcome serial = Run(options, /*eta_threads=*/1,
                                SearchMode::kPrecomputed);
  const RunOutcome parallel = Run(options, /*eta_threads=*/8,
                                  SearchMode::kPrecomputed);
  ExpectResultsIdentical(parallel.result, serial.result, /*threads=*/8);
}

INSTANTIATE_TEST_SUITE_P(BothExpansionVariants, EtaParallelTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "BestNeighbor" : "AllNeighbors";
                         });

}  // namespace
}  // namespace ctbus::core
