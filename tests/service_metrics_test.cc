// Service-level observability: ServiceStats and MetricsSnapshot() read the
// same registry counters (exact at quiescence, lock-free and safe to poll
// while requests run), metric names are stable and sorted, spans cover the
// request lifecycle, and tracing never changes planning results
// (bit-identity on or off). Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"

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

PlanRequest MidtownRequest(Priority priority = Priority::kInteractive) {
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();
  request.planner = core::Planner::kEtaPre;
  request.priority = priority;
  return request;
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  for (const auto& [metric_name, value] : snapshot.counters) {
    if (metric_name == name) return value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

const obs::HistogramSnapshot* FindHistogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [metric_name, histogram] : snapshot.histograms) {
    if (metric_name == name) return &histogram;
  }
  return nullptr;
}

/// Every ServiceStats field must equal the registry counter of its stable
/// metric name at quiescence.
void ExpectReconciles(const PlanningService& service) {
  const PlanningService::ServiceStats stats = service.service_stats();
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.submitted"), stats.submitted);
  EXPECT_EQ(CounterValue(snapshot, "service.completed"), stats.completed);
  EXPECT_EQ(CounterValue(snapshot, "service.rejected"), stats.rejected);
  EXPECT_EQ(CounterValue(snapshot, "service.precompute.from_scratch"),
            stats.precomputes_from_scratch);
  EXPECT_EQ(CounterValue(snapshot, "service.precompute.derived"),
            stats.precomputes_derived);
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batches"), stats.batches);
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batched_requests"),
            stats.batched_requests);
  EXPECT_EQ(CounterValue(snapshot, "service.commit.async"),
            stats.async_commits);
  EXPECT_EQ(CounterValue(snapshot, "service.retention.snapshots_pruned"),
            stats.snapshots_pruned);
  EXPECT_EQ(CounterValue(snapshot, "service.retention.lineage_trimmed"),
            stats.lineage_trimmed);
}

TEST(ServiceMetricsTest, CountersReconcileWithServiceStats) {
  ServiceOptions options;
  options.num_threads = 2;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(MidtownRequest(
        i % 2 == 0 ? Priority::kInteractive : Priority::kSweep)));
  }
  ServiceResult last;
  for (auto& future : futures) last = future.get();
  service.Commit(last);
  service.CommitAsync(last).get();
  ExpectReconciles(service);

  const PlanningService::ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  // CommitNow ran twice: once sync, once via the async pipeline.
  EXPECT_EQ(CounterValue(snapshot, "service.commit.total"), 2u);
}

TEST(ServiceMetricsTest, RejectionsReconcile) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.overflow_policy = OverflowPolicy::kReject;
  options.start_paused = true;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  auto first = service.Submit(MidtownRequest());
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    try {
      service.Submit(MidtownRequest());
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3);
  service.Start();
  first.get();
  ExpectReconciles(service);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.rejected"), 3u);
  EXPECT_EQ(CounterValue(snapshot, "service.submitted"), 1u);
}

TEST(ServiceMetricsTest, LatencyHistogramsCoverCompletedRequests) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  for (int i = 0; i < 3; ++i) service.Plan(MidtownRequest());
  service.Plan(MidtownRequest(Priority::kSweep));

  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  const auto* interactive =
      FindHistogram(snapshot, "service.latency.total.interactive");
  ASSERT_NE(interactive, nullptr);
  EXPECT_EQ(interactive->count, 3u);
  EXPECT_GT(interactive->sum, 0.0);
  EXPECT_LE(interactive->p50, interactive->max);
  const auto* sweep = FindHistogram(snapshot, "service.latency.total.sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->count, 1u);
  const auto* queue =
      FindHistogram(snapshot, "service.latency.queue.interactive");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->count, 3u);
}

TEST(ServiceMetricsTest, SnapshotIsSortedAndHasCacheAndDatasetViews) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  service.Plan(MidtownRequest());  // one miss -> cache populated

  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  const auto sorted_by_name = [](const auto& entries) {
    return std::is_sorted(entries.begin(), entries.end(),
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          });
  };
  EXPECT_TRUE(sorted_by_name(snapshot.counters));
  EXPECT_TRUE(sorted_by_name(snapshot.gauges));
  EXPECT_TRUE(sorted_by_name(snapshot.histograms));

  EXPECT_EQ(CounterValue(snapshot, "cache.misses"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "cache.hits"), 0u);
  std::set<std::string> gauge_names;
  for (const auto& [name, value] : snapshot.gauges) gauge_names.insert(name);
  EXPECT_TRUE(gauge_names.count("cache.resident_bytes"));
  EXPECT_TRUE(gauge_names.count("dataset.midtown.snapshot.resident_versions"));
  EXPECT_TRUE(gauge_names.count("service.shard.midtown.queue_depth"));

  // WriteMetricsJson of the quiesced service is deterministic.
  std::ostringstream first, second;
  service.WriteMetricsJson(first);
  service.WriteMetricsJson(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"service.completed\": 1"), std::string::npos);
}

TEST(ServiceMetricsTest, TracingCoversRequestLifecycle) {
  ServiceOptions options;
  options.num_threads = 1;
  options.enable_tracing = true;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  const ServiceResult first = service.Plan(MidtownRequest());
  EXPECT_NE(first.stats.trace_id, 0u);
  // Same snapshot, same options: the sweep request's resolution is a hit.
  const ServiceResult second =
      service.Plan(MidtownRequest(Priority::kSweep));
  EXPECT_NE(second.stats.trace_id, first.stats.trace_id);
  service.Commit(first);

  std::map<std::string, int> by_name;
  std::set<std::uint64_t> trace_ids;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    ++by_name[span.name];
    trace_ids.insert(span.trace_id);
    EXPECT_GE(span.start_seconds, 0.0);
    EXPECT_GE(span.duration_seconds, 0.0);
  }
  EXPECT_EQ(by_name["queue-wait"], 2);
  EXPECT_EQ(by_name["batch-assembly"], 2);
  EXPECT_EQ(by_name["precompute-resolve"], 2);
  EXPECT_EQ(by_name["context-build"], 2);
  EXPECT_EQ(by_name["plan-search"], 2);
  EXPECT_EQ(by_name["commit"], 1);
  EXPECT_TRUE(trace_ids.count(first.stats.trace_id));
  EXPECT_TRUE(trace_ids.count(second.stats.trace_id));

  // The resolve detail distinguishes scratch (first) from hit (second).
  bool saw_scratch = false, saw_hit = false;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    if (span.name != "precompute-resolve") continue;
    saw_scratch = saw_scratch || span.detail == "scratch";
    saw_hit = saw_hit || span.detail == "hit";
  }
  EXPECT_TRUE(saw_scratch);
  EXPECT_TRUE(saw_hit);

  // Dump emits one JSON line per span.
  std::ostringstream dump;
  service.trace_log().Dump(dump);
  const std::string lines = dump.str();
  EXPECT_EQ(static_cast<int>(std::count(lines.begin(), lines.end(), '\n')),
            static_cast<int>(service.trace_log().size()));
}

TEST(ServiceMetricsTest, TracingOffAssignsNoIds) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  const ServiceResult result = service.Plan(MidtownRequest());
  EXPECT_EQ(result.stats.trace_id, 0u);
  EXPECT_EQ(service.trace_log().size(), 0u);
  EXPECT_FALSE(service.trace_log().enabled());
}

TEST(ServiceMetricsTest, ObservabilityNeverChangesResults) {
  // The same request with tracing off and on must yield bit-identical
  // plans (exact double equality on purpose).
  core::PlanResult reference;
  bool have_reference = false;
  for (const bool tracing : {false, true}) {
    ServiceOptions options;
    options.num_threads = 2;
    options.enable_tracing = tracing;
    PlanningService service(options);
    service.RegisterPreset("midtown");
    const ServiceResult result = service.Plan(MidtownRequest());
    if (!have_reference) {
      reference = result.plan;
      have_reference = true;
      continue;
    }
    ASSERT_EQ(result.plan.found, reference.found);
    EXPECT_EQ(result.plan.path.edges(), reference.path.edges());
    EXPECT_EQ(result.plan.objective, reference.objective);
    EXPECT_EQ(result.plan.demand, reference.demand);
    EXPECT_EQ(result.plan.connectivity_increment,
              reference.connectivity_increment);
    EXPECT_EQ(result.plan.iterations, reference.iterations);
  }
}

TEST(ServiceMetricsTest, BatchingMetricsReconcileUnderSweepLoad) {
  ServiceOptions options;
  options.num_threads = 1;
  options.start_paused = true;
  options.max_batch_size = 8;
  options.queue_capacity = 16;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(MidtownRequest(Priority::kSweep)));
  }
  service.Start();
  for (auto& future : futures) future.get();
  ExpectReconciles(service);
  // The whole backlog shares one batch key and was queued before Start, so
  // one dequeue gathers all six: one batch, five riders, one resolution.
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batches"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batched_requests"), 5u);
  EXPECT_EQ(CounterValue(snapshot, "service.precompute.from_scratch"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "cache.hits"), 0u);
}

TEST(ServiceMetricsTest, HandedBackMembersRecordOneResolution) {
  // Two workers share one batch: the leader records the batch's only
  // batch-assembly and precompute-resolve spans and the only precompute
  // latency sample; every member records its own queue-wait,
  // context-build and plan-search, whichever worker planned it.
  ServiceOptions options;
  options.num_threads = 2;
  options.start_paused = true;
  options.cache_capacity = 0;
  options.max_batch_size = 8;
  options.enable_tracing = true;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  constexpr int kRequests = 6;
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit(MidtownRequest(Priority::kSweep)));
  }
  service.Start();
  std::set<std::uint64_t> result_ids;
  for (auto& future : futures) result_ids.insert(future.get().stats.trace_id);
  EXPECT_EQ(result_ids.size(), static_cast<std::size_t>(kRequests));

  std::map<std::string, int> by_name;
  std::map<std::uint64_t, int> member_spans;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    ++by_name[span.name];
    EXPECT_TRUE(result_ids.count(span.trace_id)) << span.name;
    if (span.name == "queue-wait" || span.name == "context-build" ||
        span.name == "plan-search") {
      ++member_spans[span.trace_id];
    }
  }
  EXPECT_EQ(by_name["batch-assembly"], 1);
  EXPECT_EQ(by_name["precompute-resolve"], 1);
  EXPECT_EQ(by_name["queue-wait"], kRequests);
  EXPECT_EQ(by_name["context-build"], kRequests);
  EXPECT_EQ(by_name["plan-search"], kRequests);
  for (const std::uint64_t id : result_ids) EXPECT_EQ(member_spans[id], 3);

  ExpectReconciles(service);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batches"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "service.batch.batched_requests"),
            static_cast<std::uint64_t>(kRequests - 1));
  const auto* precompute =
      FindHistogram(snapshot, "service.latency.precompute.sweep");
  ASSERT_NE(precompute, nullptr);
  EXPECT_EQ(precompute->count, 1u);
  const auto* total = FindHistogram(snapshot, "service.latency.total.sweep");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, static_cast<std::uint64_t>(kRequests));
}

/// ServiceStats in declaration order, for whole-struct comparisons.
std::array<std::uint64_t, 10> Fields(const PlanningService::ServiceStats& s) {
  return {s.submitted, s.completed, s.rejected,
          s.precomputes_from_scratch, s.precomputes_derived, s.batches,
          s.batched_requests, s.async_commits, s.snapshots_pruned,
          s.lineage_trimmed};
}

TEST(ServiceMetricsTest, StatsReadWhileServingEndAtTheScriptedCounts) {
  // A reader polls service_stats() and MetricsSnapshot() while two workers
  // serve a mixed burst and the commit pipeline applies two commits. Every
  // field only ever grows, and once everything has finished each one is
  // the scripted count.
  ServiceOptions options;
  options.num_threads = 2;
  options.start_paused = true;  // one deterministic backlog
  options.max_batch_size = 8;
  options.retention.keep_latest = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  std::atomic<bool> done{false};
  std::atomic<int> polls{0};
  std::thread reader([&service, &done, &polls] {
    std::array<std::uint64_t, 10> last{};
    while (!done.load()) {
      const auto fields = Fields(service.service_stats());
      for (std::size_t i = 0; i < fields.size(); ++i) {
        EXPECT_GE(fields[i], last[i]) << "field " << i;
      }
      last = fields;
      const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
      EXPECT_LE(CounterValue(snapshot, "service.completed"), 10u);
      polls.fetch_add(1);
    }
  });

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(service.Submit(MidtownRequest(
        i % 5 < 2 ? Priority::kInteractive : Priority::kSweep)));
  }
  service.Start();
  std::vector<ServiceResult> results;
  for (auto& future : futures) results.push_back(future.get());
  // Both results were planned against version 1; the second commit prunes
  // version 2, which nothing pins or caches.
  EXPECT_EQ(service.CommitAsync(results[0]).get(), 2u);
  EXPECT_EQ(service.CommitAsync(results[1]).get(), 3u);
  while (polls.load() < 2) std::this_thread::yield();
  done.store(true);
  reader.join();

  PlanningService::ServiceStats expected;
  expected.submitted = 10;
  expected.completed = 10;
  expected.precomputes_from_scratch = 1;  // every request shares one key
  expected.batches = 1;                   // all six sweeps in one dequeue
  expected.batched_requests = 5;
  expected.async_commits = 2;
  expected.snapshots_pruned = 1;
  EXPECT_EQ(Fields(service.service_stats()), Fields(expected));
  ExpectReconciles(service);
  const auto memory = service.dataset_memory_stats("midtown");
  EXPECT_EQ(memory.snapshots_pruned, 1u);
  EXPECT_EQ(memory.lineage_trimmed, 0u);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(
      CounterValue(snapshot, "dataset.midtown.retention.snapshots_pruned"),
      1u);
  EXPECT_EQ(CounterValue(snapshot, "service.commit.total"), 2u);
}

}  // namespace
}  // namespace ctbus::service
