#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/scenario_runner.h"

namespace ctbus::service {
namespace {

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

/// The ground truth a service result must match bit for bit: a fresh
/// serial context over the same networks and options.
core::PlanResult SerialPlan(const gen::Dataset& d,
                            const core::CtBusOptions& options,
                            core::Planner planner) {
  core::PlanningContext context =
      core::PlanningContext::Build(d.road, d.transit, options);
  switch (planner) {
    case core::Planner::kEta:
      return core::RunEta(&context, core::SearchMode::kOnline);
    case core::Planner::kEtaPre:
      return core::RunEta(&context, core::SearchMode::kPrecomputed);
    case core::Planner::kVkTsp:
      return core::RunVkTsp(&context);
  }
  return {};
}

void ExpectBitIdentical(const core::PlanResult& actual,
                        const core::PlanResult& expected) {
  ASSERT_EQ(actual.found, expected.found);
  if (!expected.found) return;
  EXPECT_EQ(actual.path.edges(), expected.path.edges());
  EXPECT_EQ(actual.path.stops(), expected.path.stops());
  // Exact double equality on purpose: the estimators are deterministic, so
  // concurrent execution must not perturb a single bit of the numbers.
  EXPECT_EQ(actual.objective, expected.objective);
  EXPECT_EQ(actual.demand, expected.demand);
  EXPECT_EQ(actual.connectivity_increment, expected.connectivity_increment);
  EXPECT_EQ(actual.iterations, expected.iterations);
}

PlanRequest MidtownRequest(core::Planner planner = core::Planner::kEtaPre) {
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();
  request.planner = planner;
  return request;
}

TEST(PlanningServiceTest, ConcurrentResultsMatchSerialExecution) {
  const gen::Dataset d = gen::MakeMidtown();
  const std::vector<core::Planner> planners = {
      core::Planner::kEtaPre, core::Planner::kEta, core::Planner::kVkTsp};
  std::vector<core::PlanResult> expected;
  for (core::Planner planner : planners) {
    expected.push_back(SerialPlan(d, FastOptions(), planner));
  }

  ServiceOptions service_options;
  service_options.num_threads = 4;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // 4 threads x 12 requests, interleaving planners.
  constexpr int kRequests = 12;
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        service.Submit(MidtownRequest(planners[i % planners.size()])));
  }
  for (int i = 0; i < kRequests; ++i) {
    const ServiceResult result = futures[i].get();
    ExpectBitIdentical(result.plan, expected[i % planners.size()]);
    EXPECT_EQ(result.stats.snapshot_version, 1u);
    EXPECT_GE(result.stats.worker_id, 0);
    EXPECT_LT(result.stats.worker_id, 4);
  }
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
}

TEST(PlanningServiceTest, RepeatedTauHitsThePrecomputeCache) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const ServiceResult cold = service.Plan(MidtownRequest());
  EXPECT_FALSE(cold.stats.precompute_cache_hit);

  // Same tau and precompute estimator => hit, regardless of k / w.
  PlanRequest warm_request = MidtownRequest();
  warm_request.options.k = 8;
  warm_request.options.w = 0.25;
  const ServiceResult warm = service.Plan(warm_request);
  EXPECT_TRUE(warm.stats.precompute_cache_hit);

  // Different tau => new universe, miss.
  PlanRequest other_tau = MidtownRequest();
  other_tau.options.tau = 650.0;
  const ServiceResult other = service.Plan(other_tau);
  EXPECT_FALSE(other.stats.precompute_cache_hit);

  const auto cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 2u);
}

TEST(PlanningServiceTest, SnapshotIsolationAcrossCommit) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const PlanRequest request = MidtownRequest();
  const ServiceResult before = service.Plan(request);
  ASSERT_TRUE(before.plan.found);
  EXPECT_EQ(before.stats.snapshot_version, 1u);

  // Commit advances the city without disturbing version 1.
  const std::uint64_t v2 = service.Commit(before);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(service.LatestVersion("midtown"), 2u);

  // Pinned to the old snapshot: bit-identical to the pre-commit plan.
  PlanRequest pinned = request;
  pinned.snapshot_version = 1;
  const ServiceResult replay = service.Plan(pinned);
  ExpectBitIdentical(replay.plan, before.plan);

  // Against latest: the committed route's demand is zeroed and its stop
  // pairs are no longer plannable, so the same route cannot win again.
  const ServiceResult after = service.Plan(request);
  EXPECT_EQ(after.stats.snapshot_version, 2u);
  ASSERT_TRUE(after.plan.found);
  EXPECT_NE(after.plan.path.stops(), before.plan.path.stops());

  // The new snapshot carries the committed route.
  const SnapshotPtr v2_snapshot = service.Snapshot("midtown", 2);
  ASSERT_NE(v2_snapshot, nullptr);
  const SnapshotPtr v1_snapshot = service.Snapshot("midtown", 1);
  ASSERT_NE(v1_snapshot, nullptr);
  EXPECT_EQ(v2_snapshot->transit->num_active_routes(),
            v1_snapshot->transit->num_active_routes() + 1);
}

TEST(PlanningServiceTest, SequentialCommitsFromOneSnapshotStack) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Two different plans computed against the same snapshot v1.
  const PlanRequest eta_request = MidtownRequest(core::Planner::kEtaPre);
  const PlanRequest tsp_request = MidtownRequest(core::Planner::kVkTsp);
  const ServiceResult eta = service.Plan(eta_request);
  const ServiceResult tsp = service.Plan(tsp_request);
  ASSERT_TRUE(eta.plan.found);
  ASSERT_TRUE(tsp.plan.found);
  ASSERT_NE(eta.plan.path.stops(), tsp.plan.path.stops());

  // Committing both must stack: the second lands on top of the first
  // instead of clobbering it from their shared base version.
  service.Commit(eta);
  service.Commit(tsp);
  EXPECT_EQ(service.LatestVersion("midtown"), 3u);
  const SnapshotPtr v1 = service.Snapshot("midtown", 1);
  const SnapshotPtr v3 = service.Snapshot("midtown", 3);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(v3->transit->num_active_routes(),
            v1->transit->num_active_routes() + 2);
}

TEST(PlanningServiceTest, UnknownDatasetAndVersionFail) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");

  PlanRequest bad_dataset = MidtownRequest();
  bad_dataset.dataset = "atlantis";
  EXPECT_THROW(service.Submit(std::move(bad_dataset)), std::invalid_argument);

  PlanRequest bad_version = MidtownRequest();
  bad_version.snapshot_version = 99;
  auto future = service.Submit(std::move(bad_version));
  EXPECT_THROW(future.get(), std::invalid_argument);
}

TEST(PlanningServiceTest, DuplicateRegistrationThrows) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");
  EXPECT_THROW(service.RegisterPreset("midtown"), std::invalid_argument);
  EXPECT_TRUE(service.HasDataset("midtown"));
  EXPECT_FALSE(service.HasDataset("nyc"));
}

TEST(PlanningServiceTest, SubmitAfterShutdownThrows) {
  PlanningService service(ServiceOptions{});
  service.RegisterPreset("midtown");
  service.Shutdown();
  EXPECT_THROW(service.Submit(MidtownRequest()), std::runtime_error);
  // A refused submit is counted nowhere: not admitted, and not a
  // kReject overflow refusal either.
  EXPECT_EQ(service.service_stats().submitted, 0u);
  EXPECT_EQ(service.service_stats().rejected, 0u);
  const auto counters = service.MetricsSnapshot().counters;
  const auto submitted =
      std::find_if(counters.begin(), counters.end(), [](const auto& counter) {
        return counter.first == "service.submitted";
      });
  ASSERT_NE(submitted, counters.end());
  EXPECT_EQ(submitted->second, 0u);
}

TEST(PlanningServiceTest, PausedServiceBatchesSameKeySweeps) {
  const gen::Dataset d = gen::MakeMidtown();
  const core::PlanResult expected =
      SerialPlan(d, FastOptions(), core::Planner::kEtaPre);

  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  service_options.cache_capacity = 0;  // batching must amortize on its own
  service_options.max_batch_size = 8;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  // Enqueue 5 same-key sweep requests while the worker is parked, then
  // release it: they must drain as ONE batch, sharing one precompute
  // resolution even with the cache disabled.
  constexpr int kRequests = 5;
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    PlanRequest request = MidtownRequest();
    request.priority = Priority::kSweep;
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Start();
  for (auto& future : futures) {
    const ServiceResult result = future.get();
    ExpectBitIdentical(result.plan, expected);
    EXPECT_EQ(result.stats.batch_size, static_cast<std::size_t>(kRequests));
  }
  // One compute total: the cache (disabled) saw only the leader's miss.
  EXPECT_EQ(service.cache_stats().misses, 1u);
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, static_cast<std::uint64_t>(kRequests - 1));
}

/// Submits `count` same-key sweep requests (optionally pinned to one
/// snapshot version) to a paused service.
std::vector<std::future<ServiceResult>> SubmitSweeps(
    PlanningService& service, int count, std::uint64_t version = 0) {
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < count; ++i) {
    PlanRequest request = MidtownRequest();
    request.priority = Priority::kSweep;
    request.snapshot_version = version;
    futures.push_back(service.Submit(std::move(request)));
  }
  return futures;
}

ServiceOptions PausedTwoWorkerBatching() {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.start_paused = true;
  service_options.cache_capacity = 0;  // batching must amortize on its own
  service_options.max_batch_size = 8;
  return service_options;
}

TEST(PlanningServiceTest, BatchMembersHandedBackKeepOneResolution) {
  // Two workers drain one batch of eight: the leader resolves once and
  // hands the other seven back to the queue for both workers to plan.
  // Which worker plans which member is left to the scheduler; the plans
  // and the accounting may not depend on it.
  const gen::Dataset d = gen::MakeMidtown();
  const core::PlanResult expected =
      SerialPlan(d, FastOptions(), core::Planner::kEtaPre);
  PlanningService service(PausedTwoWorkerBatching());
  service.RegisterPreset("midtown");

  constexpr int kRequests = 8;
  auto futures = SubmitSweeps(service, kRequests);
  service.Start();
  int resolved_here = 0;
  int cache_misses = 0;
  for (auto& future : futures) {
    const ServiceResult result = future.get();
    ExpectBitIdentical(result.plan, expected);
    EXPECT_EQ(result.stats.batch_size, static_cast<std::size_t>(kRequests));
    EXPECT_FALSE(result.stats.precompute_derived);
    if (result.stats.precompute_seconds > 0.0) ++resolved_here;
    if (!result.stats.precompute_cache_hit) ++cache_misses;
  }
  EXPECT_EQ(resolved_here, 1);
  EXPECT_EQ(cache_misses, 1);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
}

TEST(PlanningServiceTest, FailedBatchResolutionFailsEveryMember) {
  PlanningService service(PausedTwoWorkerBatching());
  service.RegisterPreset("midtown");

  constexpr int kRequests = 4;
  auto futures = SubmitSweeps(service, kRequests, /*version=*/99);
  service.Start();
  for (auto& future : futures) {
    EXPECT_THROW(future.get(), std::invalid_argument);
  }
  EXPECT_EQ(service.service_stats().completed,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(service.dataset_memory_stats("midtown").pinned_versions, 0u);
}

TEST(PlanningServiceTest, ShutdownDrainsHandedBackMembers) {
  // Shutdown right after Start: members handed back by the leader were
  // already admitted, so the drain must plan every one of them.
  const gen::Dataset d = gen::MakeMidtown();
  const core::PlanResult expected =
      SerialPlan(d, FastOptions(), core::Planner::kEtaPre);
  PlanningService service(PausedTwoWorkerBatching());
  service.RegisterPreset("midtown");

  auto futures = SubmitSweeps(service, 8);
  service.Start();
  service.Shutdown();
  for (auto& future : futures) {
    ServiceResult result;
    ASSERT_NO_THROW(result = future.get());
    ExpectBitIdentical(result.plan, expected);
  }
  EXPECT_EQ(service.service_stats().completed, 8u);
}

TEST(PlanningServiceTest, BatchSizeOneDisablesBatching) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  service_options.max_batch_size = 1;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 3; ++i) {
    PlanRequest request = MidtownRequest();
    request.priority = Priority::kSweep;
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Start();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().stats.batch_size, 1u);
  }
  EXPECT_EQ(service.service_stats().batches, 0u);
  // Unbatched same-key traffic still amortizes through the cache instead.
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().hits, 2u);
}

TEST(PlanningServiceTest, RejectPolicyShedsLoadBeyondCapacity) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;  // nothing drains: queue must fill
  service_options.queue_capacity = 2;
  service_options.overflow_policy = OverflowPolicy::kReject;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> accepted;
  accepted.push_back(service.Submit(MidtownRequest()));
  accepted.push_back(service.Submit(MidtownRequest()));
  EXPECT_THROW(service.Submit(MidtownRequest()), std::runtime_error);
  const auto stats = service.service_stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  service.Start();  // accepted requests still complete normally
  for (auto& future : accepted) {
    EXPECT_TRUE(future.get().plan.found);
  }
}

TEST(PlanningServiceTest, PerDatasetShardsIsolateBacklogs) {
  // Two datasets, one worker each. Dataset "hot" is flooded to its queue
  // capacity while paused; a submit to "cold" must not block (distinct
  // shard, distinct queue) even though "hot" is saturated.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.start_paused = true;
  service_options.queue_capacity = 4;
  service_options.overflow_policy = OverflowPolicy::kReject;
  PlanningService service(service_options);
  const gen::Dataset d = gen::MakeMidtown();
  service.RegisterDataset("hot", d.road, d.transit);
  service.RegisterDataset("cold", d.road, d.transit);
  EXPECT_EQ(service.num_workers(), 2);

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 4; ++i) {
    PlanRequest request = MidtownRequest();
    request.dataset = "hot";
    futures.push_back(service.Submit(std::move(request)));
  }
  PlanRequest hot_overflow = MidtownRequest();
  hot_overflow.dataset = "hot";
  EXPECT_THROW(service.Submit(std::move(hot_overflow)), std::runtime_error);

  // The cold shard accepts instantly despite the hot shard being full.
  PlanRequest cold_request = MidtownRequest();
  cold_request.dataset = "cold";
  futures.push_back(service.Submit(std::move(cold_request)));

  service.Start();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().plan.found);
  }
}

TEST(PlanningServiceTest, AsyncCommitsApplyInOrderAndStack) {
  ServiceOptions service_options;
  service_options.num_threads = 2;
  PlanningService service(service_options);
  service.RegisterPreset("midtown");

  const ServiceResult eta = service.Plan(MidtownRequest(core::Planner::kEtaPre));
  const ServiceResult tsp = service.Plan(MidtownRequest(core::Planner::kVkTsp));
  ASSERT_TRUE(eta.plan.found);
  ASSERT_TRUE(tsp.plan.found);

  // Both plans were computed against v1; the async pipeline must stack
  // them FIFO: eta -> v2, tsp -> v3.
  std::future<std::uint64_t> first = service.CommitAsync(eta);
  std::future<std::uint64_t> second = service.CommitAsync(tsp);
  EXPECT_EQ(first.get(), 2u);
  EXPECT_EQ(second.get(), 3u);
  EXPECT_EQ(service.LatestVersion("midtown"), 3u);
  EXPECT_EQ(service.service_stats().async_commits, 2u);

  const SnapshotPtr v1 = service.Snapshot("midtown", 1);
  const SnapshotPtr v3 = service.Snapshot("midtown", 3);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v3, nullptr);
  EXPECT_EQ(v3->transit->num_active_routes(),
            v1->transit->num_active_routes() + 2);

  // A failed async commit surfaces through its future, not the service.
  ServiceResult bogus = eta;
  bogus.stats.snapshot_version = 99;
  bogus.request.snapshot_version = 99;
  auto failed = service.CommitAsync(bogus);
  EXPECT_THROW(failed.get(), std::invalid_argument);
}

TEST(PlanningServiceTest, ShutdownDrainsPendingAsyncCommits) {
  std::future<std::uint64_t> pending;
  {
    ServiceOptions service_options;
    PlanningService service(service_options);
    service.RegisterPreset("midtown");
    const ServiceResult result = service.Plan(MidtownRequest());
    ASSERT_TRUE(result.plan.found);
    pending = service.CommitAsync(result);
    service.Shutdown();
    EXPECT_THROW(service.CommitAsync(result), std::runtime_error);
  }
  // The commit enqueued before Shutdown was applied, not dropped.
  EXPECT_EQ(pending.get(), 2u);
}

}  // namespace
}  // namespace ctbus::service
