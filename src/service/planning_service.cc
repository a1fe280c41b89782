#include "service/planning_service.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/baselines.h"
#include "core/timing.h"
#include "gen/datasets.h"
#include "io/snapshot.h"

namespace ctbus::service {

using core::Stopwatch;

namespace {

/// Latency histogram names, phase x priority class. Stable API.
const char* const kPhaseNames[2][5] = {
    {"service.latency.queue.interactive",
     "service.latency.precompute.interactive",
     "service.latency.context.interactive",
     "service.latency.plan.interactive",
     "service.latency.total.interactive"},
    {"service.latency.queue.sweep", "service.latency.precompute.sweep",
     "service.latency.context.sweep", "service.latency.plan.sweep",
     "service.latency.total.sweep"},
};

/// The batch identity of a request: everything its precompute resolution
/// depends on, with snapshot_version taken *as submitted* (0 = "latest"
/// stays 0, so only requests that will resolve "latest" together group
/// together; pinned versions only group with the same pin).
PrecomputeKey BatchKeyOf(const PlanRequest& request) {
  return MakePrecomputeKey(request.dataset, request.snapshot_version,
                           request.options);
}

}  // namespace

PlanningService::PlanningService(const ServiceOptions& options)
    : warm_start_precompute_(options.warm_start_precompute),
      max_warm_start_depth_(std::max(1, options.max_warm_start_depth)),
      default_retention_(options.retention),
      trace_(options.trace_capacity, options.enable_tracing),
      cache_(options.cache_capacity, options.cache_max_bytes,
             options.cache_spill_dir),
      queue_capacity_(std::max<std::size_t>(1, options.queue_capacity)),
      max_batch_size_(std::max<std::size_t>(1, options.max_batch_size)),
      overflow_policy_(options.overflow_policy),
      paused_(options.start_paused) {
  // Resolve every instrument once; the hot path records through these
  // raw pointers without ever touching the registry mutex again.
  counters_.submitted = metrics_.GetCounter("service.submitted");
  counters_.completed = metrics_.GetCounter("service.completed");
  counters_.rejected = metrics_.GetCounter("service.rejected");
  counters_.precomputes_from_scratch =
      metrics_.GetCounter("service.precompute.from_scratch");
  counters_.precomputes_derived =
      metrics_.GetCounter("service.precompute.derived");
  counters_.batches = metrics_.GetCounter("service.batch.batches");
  counters_.batched_requests =
      metrics_.GetCounter("service.batch.batched_requests");
  counters_.commits = metrics_.GetCounter("service.commit.total");
  counters_.async_commits = metrics_.GetCounter("service.commit.async");
  counters_.snapshots_pruned =
      metrics_.GetCounter("service.retention.snapshots_pruned");
  counters_.lineage_trimmed =
      metrics_.GetCounter("service.retention.lineage_trimmed");
  for (int p = 0; p < 2; ++p) {
    latency_[p].queue = metrics_.GetHistogram(kPhaseNames[p][0]);
    latency_[p].precompute = metrics_.GetHistogram(kPhaseNames[p][1]);
    latency_[p].context = metrics_.GetHistogram(kPhaseNames[p][2]);
    latency_[p].plan = metrics_.GetHistogram(kPhaseNames[p][3]);
    latency_[p].total = metrics_.GetHistogram(kPhaseNames[p][4]);
  }
  int threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads_per_shard_ = threads;
  core::MutexLock lock(commit_mu_);
  commit_worker_ = std::thread([this] { CommitLoop(); });
}

PlanningService::~PlanningService() { Shutdown(); }

void PlanningService::RegisterDataset(const std::string& name,
                                      graph::RoadNetwork road,
                                      graph::TransitNetwork transit) {
  RegisterDataset(name, std::move(road), std::move(transit),
                  default_retention_);
}

void PlanningService::RegisterDataset(
    const std::string& name, graph::RoadNetwork road,
    graph::TransitNetwork transit,
    const SnapshotRetentionPolicy& retention) {
  auto shard = std::make_shared<Shard>(std::make_shared<SnapshotStore>(
      std::move(road), std::move(transit)));
  shard->retention = retention;
  shard->queue_depth_gauge =
      metrics_.GetGauge("service.shard." + name + ".queue_depth");
  shard->snapshots_pruned =
      metrics_.GetCounter("dataset." + name + ".retention.snapshots_pruned");
  shard->lineage_trimmed =
      metrics_.GetCounter("dataset." + name + ".retention.lineage_trimmed");
  core::MutexLock lock(datasets_mu_);
  if (shutting_down_.load()) {
    throw std::runtime_error("RegisterDataset after Shutdown");
  }
  if (shards_.count(name) > 0) {
    throw std::invalid_argument("RegisterDataset: duplicate name " + name);
  }
  Shard* raw = shard.get();
  {
    // The shard is not published yet, but the freshly spawned workers
    // already reference it; hold its mutex so the spawn bookkeeping is
    // ordered before any worker's first dequeue.
    core::MutexLock shard_lock(shard->mu);
    shard->live_workers = threads_per_shard_;
    shard->workers.reserve(threads_per_shard_);
    for (int i = 0; i < threads_per_shard_; ++i) {
      const int worker_id = next_worker_id_.fetch_add(1);
      shard->workers.emplace_back(
          [this, raw, worker_id] { WorkerLoop(raw, worker_id); });
    }
  }
  shards_.emplace(name, std::move(shard));
}

void PlanningService::RegisterPreset(const std::string& name, double scale) {
  gen::Dataset dataset = gen::MakeDatasetByName(name, scale);
  RegisterDataset(name, std::move(dataset.road), std::move(dataset.transit));
}

bool PlanningService::HasDataset(const std::string& name) const {
  core::MutexLock lock(datasets_mu_);
  return shards_.count(name) > 0;
}

std::vector<std::string> PlanningService::DatasetNames() const {
  core::MutexLock lock(datasets_mu_);
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;
}

std::shared_ptr<PlanningService::Shard> PlanningService::FindShard(
    const std::string& dataset) const {
  core::MutexLock lock(datasets_mu_);
  const auto it = shards_.find(dataset);
  if (it == shards_.end()) {
    throw std::invalid_argument("unknown dataset: " + dataset);
  }
  return it->second;
}

std::shared_ptr<SnapshotStore> PlanningService::Store(
    const std::string& dataset) const {
  return FindShard(dataset)->store;
}

std::uint64_t PlanningService::LatestVersion(
    const std::string& dataset) const {
  return Store(dataset)->latest_version();
}

SnapshotPtr PlanningService::Snapshot(const std::string& dataset,
                                      std::uint64_t version) const {
  const auto store = Store(dataset);
  return version == 0 ? store->Latest() : store->Get(version);
}

void PlanningService::Start() {
  if (!paused_.exchange(false)) return;
  std::vector<std::shared_ptr<Shard>> shards;
  {
    core::MutexLock lock(datasets_mu_);
    for (const auto& [name, shard] : shards_) shards.push_back(shard);
  }
  for (const auto& shard : shards) {
    // Empty critical section: a worker that read paused_ == true inside
    // its wait predicate either holds mu (we wait for it) or is about to
    // re-check after our notify. Never signal a cv without this handshake.
    { core::MutexLock lock(shard->mu); }
    shard->not_empty.NotifyAll();
  }
}

std::future<ServiceResult> PlanningService::Submit(PlanRequest request) {
  const auto shard = FindShard(request.dataset);
  Task task;
  task.request = std::move(request);
  task.submit_time = std::chrono::steady_clock::now();
  if (task.request.priority == Priority::kSweep) {
    task.batch_key = BatchKeyOf(task.request);  // outside the shard lock
  }
  if (trace_.enabled()) {
    task.trace_id = trace_.NextTraceId();
    task.submit_trace_offset = trace_.Now();
  }
  std::future<ServiceResult> future = task.promise.get_future();
  {
    core::MutexLock lock(shard->mu);
    if (overflow_policy_ == OverflowPolicy::kReject &&
        shard->queued() >= queue_capacity_ && !shutting_down_.load()) {
      lock.Unlock();
      counters_.rejected->Add();
      throw std::runtime_error("PlanningService: shard queue full for " +
                               task.request.dataset);
    }
    while (!shutting_down_.load() && shard->queued() >= queue_capacity_) {
      shard->not_full.Wait(shard->mu);
    }
    if (shutting_down_.load()) {
      throw std::runtime_error("PlanningService: Submit after Shutdown");
    }
    // Pin an explicitly requested version against retention while the
    // task waits in the queue ("latest" needs no pin — the latest version
    // is never pruned). Released by ResolveBatch.
    if (task.request.snapshot_version != 0) {
      task.pinned_version = task.request.snapshot_version;
      ++shard->version_pins[task.pinned_version];
    }
    // Counted once the enqueue is irrevocable and before the task becomes
    // visible to workers, so completed never runs ahead of submitted.
    counters_.submitted->Add();
    if (task.request.priority == Priority::kInteractive) {
      shard->interactive.push_back(std::move(task));
    } else {
      shard->sweep.push_back(std::move(task));
    }
    shard->queue_depth_gauge->Set(static_cast<std::int64_t>(shard->queued()));
  }
  shard->not_empty.NotifyOne();
  return future;
}

ServiceResult PlanningService::Plan(PlanRequest request) {
  return Submit(std::move(request)).get();
}

std::uint64_t PlanningService::Commit(const ServiceResult& result) {
  return CommitNow(result);
}

std::future<std::uint64_t> PlanningService::CommitAsync(ServiceResult result) {
  CommitTask task;
  task.result = std::move(result);
  // Pin the planned-against version while the commit waits in the
  // pipeline: retention passes triggered by earlier commits must not
  // prune the snapshot this result's edge ids map through.
  task.shard = FindShard(task.result.request.dataset);
  task.pinned_version = task.result.stats.snapshot_version;
  if (task.pinned_version != 0) {
    core::MutexLock lock(task.shard->mu);
    ++task.shard->version_pins[task.pinned_version];
  }
  std::future<std::uint64_t> future = task.promise.get_future();
  {
    core::MutexLock lock(commit_mu_);
    if (commit_shutdown_) {
      UnpinVersion(task.shard.get(), task.pinned_version);
      throw std::runtime_error("PlanningService: CommitAsync after Shutdown");
    }
    commit_queue_.push_back(std::move(task));
  }
  commit_cv_.NotifyOne();
  return future;
}

std::uint64_t PlanningService::CommitNow(const ServiceResult& result) {
  // The commit span reuses the request's trace id (when it was traced), so
  // a request's whole lifecycle joins on one id in the trace dump.
  const bool traced = trace_.enabled() && result.stats.trace_id != 0;
  const double commit_start = traced ? trace_.Now() : 0.0;
  const PlanRequest& request = result.request;
  const auto shard = FindShard(request.dataset);
  const auto store = shard->store;
  const std::uint64_t version = result.stats.snapshot_version;
  const SnapshotPtr snapshot = store->Get(version);
  // The universe that maps the result's edge ids back to stop pairs lives
  // in the precompute for (dataset, version, tau); typically still hot.
  PrecomputeCache::PrecomputePtr precompute;
  if (snapshot != nullptr) {
    precompute = ResolvePrecompute(*store, request.dataset, *snapshot,
                                   request.options,
                                   /*cache_hit=*/nullptr,
                                   /*derived=*/nullptr);
  } else {
    // The planned-against version was pruned by retention. Committing
    // needs only the universe the plan was computed in (CommitRoute
    // applies on top of latest), so a still-cached precompute suffices.
    precompute = cache_.Peek(
        MakePrecomputeKey(request.dataset, version, request.options));
    if (precompute == nullptr) {
      throw std::invalid_argument("Commit: unknown snapshot version");
    }
  }
  // Commit on top of *latest* (base 0), not the version the plan was
  // computed against: sequential commits of plans from one snapshot must
  // stack, not clobber each other. The universe still comes from the
  // planned-against version — that is what maps the result's edge ids.
  const std::uint64_t new_version =
      store->CommitRoute(result.plan, precompute->universe,
                         /*base_version=*/0);
  ApplyRetention(request.dataset, shard.get());
  counters_.commits->Add();
  if (traced) {
    trace_.Record({result.stats.trace_id, "commit", request.dataset,
                   commit_start, trace_.Now() - commit_start});
  }
  return new_version;
}

void PlanningService::CommitLoop() {
  for (;;) {
    CommitTask task;
    {
      core::MutexLock lock(commit_mu_);
      while (!commit_shutdown_ && commit_queue_.empty()) {
        commit_cv_.Wait(commit_mu_);
      }
      if (commit_queue_.empty()) return;  // shutting down and drained
      task = std::move(commit_queue_.front());
      commit_queue_.pop_front();
    }
    try {
      const std::uint64_t version = CommitNow(task.result);
      UnpinVersion(task.shard.get(), task.pinned_version);
      counters_.async_commits->Add();
      task.promise.set_value(version);
    } catch (...) {
      UnpinVersion(task.shard.get(), task.pinned_version);
      task.promise.set_exception(std::current_exception());
    }
  }
}

void PlanningService::UnpinVersionLocked(Shard* shard,
                                         std::uint64_t version) {
  if (version == 0) return;
  const auto it = shard->version_pins.find(version);
  if (it == shard->version_pins.end()) return;
  if (--it->second <= 0) shard->version_pins.erase(it);
}

void PlanningService::UnpinVersion(Shard* shard, std::uint64_t version) {
  if (shard == nullptr || version == 0) return;
  core::MutexLock lock(shard->mu);
  UnpinVersionLocked(shard, version);
}

void PlanningService::ApplyRetention(const std::string& dataset,
                                     Shard* shard) {
  const SnapshotRetentionPolicy& policy = shard->retention;
  if (policy.keep_latest == 0 && policy.max_bytes == 0) return;
  // Protected set: versions pinned by queued requests / pending commits,
  // plus every version with a resident cache entry for this dataset (a
  // ready entry is a live warm-start donor whose lineage must survive;
  // an in-flight entry is a derive in progress whose target version's
  // lineage walk is happening right now). The cache keys are read first
  // (cache lock), then shard->mu is held ACROSS the store call: pins are
  // taken under shard->mu, so a concurrent Submit/CommitAsync pin either
  // lands before the pass (and is protected) or after it (and sees the
  // post-prune store, where a pruned version fails like any unknown
  // version). Holding shard->mu while taking the store's index lock is
  // safe: no path acquires them in the other order.
  std::vector<std::uint64_t> protected_versions;
  for (const PrecomputeKey& key : cache_.KeysByRecency()) {
    if (key.dataset == dataset) {
      protected_versions.push_back(key.snapshot_version);
    }
  }
  SnapshotStore::RetentionResult result;
  {
    core::MutexLock lock(shard->mu);
    protected_versions.reserve(protected_versions.size() +
                               shard->version_pins.size());
    for (const auto& [version, pins] : shard->version_pins) {
      protected_versions.push_back(version);
    }
    result = shard->store->ApplyRetention(policy, protected_versions);
  }
  // Service-wide totals plus the per-dataset breakdown.
  counters_.snapshots_pruned->Add(result.versions_pruned);
  counters_.lineage_trimmed->Add(result.lineage_trimmed);
  shard->snapshots_pruned->Add(result.versions_pruned);
  shard->lineage_trimmed->Add(result.lineage_trimmed);
}

PrecomputeCache::PrecomputePtr PlanningService::ResolvePrecompute(
    SnapshotStore& store, const std::string& dataset,
    const NetworkSnapshot& snapshot, const core::CtBusOptions& options,
    bool* cache_hit, bool* derived) {
  const PrecomputeKey key =
      MakePrecomputeKey(dataset, snapshot.version, options);
  bool was_derived = false;
  bool was_hit = false;
  const auto precompute = cache_.GetOrCompute(
      key,
      [&]() -> core::Precompute {
        if (warm_start_precompute_) {
          // Donor choice: a from-scratch (depth-0) precompute anchors the
          // derivation exactly, so prefer the nearest one even over a
          // closer derived donor; deriving from derived donors is allowed
          // up to max_warm_start_depth_ so stochastic carry error cannot
          // compound without bound. ReadySiblings sorts by descending
          // version; DeltaBetween rejects non-ancestors.
          const auto siblings = cache_.ReadySiblings(key);
          for (const bool scratch_only : {true, false}) {
            for (const auto& [donor_version, donor] : siblings) {
              if (donor_version >= snapshot.version) continue;
              const int depth = donor->stats.derivation_depth;
              if (scratch_only ? depth != 0
                               : depth >= max_warm_start_depth_) {
                continue;
              }
              const auto delta =
                  store.DeltaBetween(donor_version, snapshot.version);
              if (!delta.has_value()) continue;
              was_derived = true;
              return core::PlanningContext::DerivePrecompute(
                  *snapshot.road, *snapshot.transit, options, *donor,
                  *delta);
            }
          }
        }
        return core::PlanningContext::RunPrecompute(
            *snapshot.road, *snapshot.transit, options);
      },
      &was_hit,
      // Lazy content fingerprint for the disk-spill path: snapshot
      // version counters restart at 1 every process start, so spill
      // files are validated against the network bytes themselves. Only
      // evaluated on a miss with spill enabled — never on the hit path.
      [&snapshot] {
        return io::NetworkFingerprint(*snapshot.road, *snapshot.transit);
      });
  if (cache_hit != nullptr) *cache_hit = was_hit;
  if (derived != nullptr) *derived = was_derived;
  if (!was_hit) {
    (was_derived ? counters_.precomputes_derived
                 : counters_.precomputes_from_scratch)
        ->Add();
  }
  return precompute;
}

PlanningService::ServiceStats PlanningService::service_stats() const {
  ServiceStats stats;
  stats.submitted = counters_.submitted->Value();
  stats.completed = counters_.completed->Value();
  stats.rejected = counters_.rejected->Value();
  stats.precomputes_from_scratch = counters_.precomputes_from_scratch->Value();
  stats.precomputes_derived = counters_.precomputes_derived->Value();
  stats.batches = counters_.batches->Value();
  stats.batched_requests = counters_.batched_requests->Value();
  stats.async_commits = counters_.async_commits->Value();
  stats.snapshots_pruned = counters_.snapshots_pruned->Value();
  stats.lineage_trimmed = counters_.lineage_trimmed->Value();
  return stats;
}

PlanningService::DatasetMemoryStats PlanningService::dataset_memory_stats(
    const std::string& dataset) const {
  const auto shard = FindShard(dataset);
  DatasetMemoryStats stats;
  stats.resident_versions = shard->store->num_versions();
  stats.snapshot_bytes = shard->store->ApproxBytes();
  stats.lineage_records = shard->store->num_lineage_records();
  stats.snapshots_pruned = shard->snapshots_pruned->Value();
  stats.lineage_trimmed = shard->lineage_trimmed->Value();
  core::MutexLock lock(shard->mu);
  stats.pinned_versions = shard->version_pins.size();
  return stats;
}

void PlanningService::RecordRequestLatency(Priority priority,
                                           const RequestStats& stats,
                                           bool batch_leader) {
  PhaseHistograms& phases = latency_[static_cast<int>(priority)];
  phases.queue->Record(stats.queue_seconds);
  if (batch_leader) phases.precompute->Record(stats.precompute_seconds);
  phases.context->Record(stats.context_seconds);
  phases.plan->Record(stats.plan_seconds);
  phases.total->Record(stats.queue_seconds + stats.precompute_seconds +
                       stats.context_seconds + stats.plan_seconds);
}

obs::MetricsSnapshot PlanningService::MetricsSnapshot() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Read-time views: the cache and the snapshot stores keep their own
  // exact accounting, so these need no hot-path instruments.
  const PrecomputeCache::Stats cache = cache_.stats();
  snapshot.counters.emplace_back("cache.evicted_bytes", cache.evicted_bytes);
  snapshot.counters.emplace_back("cache.evictions", cache.evictions);
  snapshot.counters.emplace_back("cache.hits", cache.hits);
  snapshot.counters.emplace_back("cache.misses", cache.misses);
  snapshot.gauges.emplace_back(
      "cache.resident_bytes", static_cast<std::int64_t>(cache.resident_bytes));
  std::vector<std::string> names = DatasetNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const DatasetMemoryStats stats = dataset_memory_stats(name);
    const std::string prefix = "dataset." + name + ".";
    snapshot.gauges.emplace_back(
        prefix + "snapshot.bytes",
        static_cast<std::int64_t>(stats.snapshot_bytes));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.lineage_records",
        static_cast<std::int64_t>(stats.lineage_records));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.pinned_versions",
        static_cast<std::int64_t>(stats.pinned_versions));
    snapshot.gauges.emplace_back(
        prefix + "snapshot.resident_versions",
        static_cast<std::int64_t>(stats.resident_versions));
  }
  // Restore the registry snapshot's deterministic-order contract after the
  // merge (names are unique across sources: the views add only cache.*
  // and dataset.<name>.snapshot.* names, which the registry never holds).
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  return snapshot;
}

void PlanningService::WriteMetricsJson(std::ostream& out) const {
  obs::WriteMetricsJson(MetricsSnapshot(), out);
}

int PlanningService::num_workers() const { return next_worker_id_.load(); }

void PlanningService::Shutdown() {
  // Wake every shard. The store-then-lock-then-notify handshake guarantees
  // a waiter either sees shutting_down_ or has not yet evaluated its
  // predicate (it holds mu while doing so).
  shutting_down_.store(true);
  std::vector<std::shared_ptr<Shard>> shards;
  {
    core::MutexLock lock(datasets_mu_);
    for (const auto& [name, shard] : shards_) shards.push_back(shard);
  }
  for (const auto& shard : shards) {
    // Claim the worker threads under the lock so concurrent Shutdown calls
    // (e.g. an explicit call racing the destructor) each join a disjoint —
    // possibly empty — set instead of double-joining the same threads.
    std::vector<std::thread> claimed;
    {
      core::MutexLock lock(shard->mu);
      claimed.swap(shard->workers);
    }
    shard->not_empty.NotifyAll();
    shard->not_full.NotifyAll();
    for (std::thread& worker : claimed) {
      if (worker.joinable()) worker.join();
    }
    // A caller that claimed no threads (another Shutdown got there first)
    // must still not return until every worker has left WorkerLoop —
    // otherwise the destructor could tear members down under a live worker.
    core::MutexLock lock(shard->mu);
    while (shard->live_workers != 0) shard->workers_done.Wait(shard->mu);
  }
  // Drain the commit pipeline after the plan queues: workers are gone, so
  // no new CommitAsync producer is racing the drain from inside the
  // service (external callers now get a throw).
  std::thread commit_claimed;
  {
    core::MutexLock lock(commit_mu_);
    commit_shutdown_ = true;
    commit_claimed.swap(commit_worker_);
  }
  commit_cv_.NotifyAll();
  if (commit_claimed.joinable()) commit_claimed.join();
}

void PlanningService::WorkerLoop(Shard* shard, int worker_id) {
  for (;;) {
    std::vector<Task> batch;
    double assembly_start = 0.0;
    {
      core::MutexLock lock(shard->mu);
      while (!shutting_down_.load() &&
             (paused_.load() || shard->queued() == 0)) {
        shard->not_empty.Wait(shard->mu);
      }
      if (shard->queued() == 0) {  // shutting down and drained
        --shard->live_workers;
        if (shard->live_workers == 0) shard->workers_done.NotifyAll();
        return;
      }
      if (trace_.enabled()) assembly_start = trace_.Now();
      batch = NextBatchLocked(shard);
      shard->queue_depth_gauge->Set(static_cast<std::int64_t>(shard->queued()));
    }
    // A handed-back member was assembled and resolved by its leader.
    const bool handed_back = batch.front().resolution.precompute != nullptr;
    // The batch-assembly span carries the leader's trace id: it is the
    // leader's dequeue that gathered the batch.
    if (!handed_back && trace_.enabled() && batch.front().trace_id != 0) {
      trace_.Record({batch.front().trace_id, "batch-assembly",
                     "size=" + std::to_string(batch.size()), assembly_start,
                     trace_.Now() - assembly_start});
    }
    // A batch may have freed several queue slots at once.
    if (batch.size() > 1) {
      shard->not_full.NotifyAll();
    } else {
      shard->not_full.NotifyOne();
    }
    if (!handed_back && !ResolveBatch(shard, &batch)) continue;
    ExecuteTask(std::move(batch.front()), worker_id);
  }
}

std::vector<PlanningService::Task> PlanningService::NextBatchLocked(
    Shard* shard) {
  std::vector<Task> batch;
  // Strict two-level priority: any queued interactive request preempts the
  // whole sweep backlog. Interactive requests execute one per dequeue.
  if (!shard->interactive.empty()) {
    batch.push_back(std::move(shard->interactive.front()));
    shard->interactive.pop_front();
    return batch;
  }
  batch.push_back(std::move(shard->sweep.front()));
  shard->sweep.pop_front();
  // Handed-back members sit at the front of the sweep queue and execute
  // alone: their batch was already gathered and resolved. Past this point
  // the front was unresolved, so no handed-back member is left to gather.
  if (max_batch_size_ <= 1 || batch.front().resolution.precompute != nullptr) {
    return batch;
  }
  // Gather every queued sweep request with the same batch key (computed
  // once at Submit), preserving submission order among the gathered
  // members (order within a batch does not affect results — each member
  // plans in a private context — but keeps completion order intuitive).
  // One copy, not a reference: push_back below may reallocate `batch`.
  const PrecomputeKey key = batch.front().batch_key;
  for (auto it = shard->sweep.begin();
       it != shard->sweep.end() && batch.size() < max_batch_size_;) {
    if (it->batch_key == key) {
      batch.push_back(std::move(*it));
      it = shard->sweep.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

bool PlanningService::ResolveBatch(Shard* shard, std::vector<Task>* batch) {
  Resolution resolved;
  resolved.pickup_time = std::chrono::steady_clock::now();
  resolved.batch_size = batch->size();
  if (batch->size() > 1) {
    counters_.batches->Add();
    counters_.batched_requests->Add(batch->size() - 1);
  }

  // Every member shares the same as-submitted version (it is part of the
  // batch key), so one resolution pins the snapshot for the whole batch.
  // In particular all "latest" members see the same latest, even if a
  // commit lands while the batch is executing.
  const Task& leader = batch->front();
  const std::uint64_t requested_version = leader.request.snapshot_version;
  double resolve_start = 0.0;
  std::exception_ptr failure;
  try {
    resolved.snapshot = requested_version == 0
                            ? shard->store->Latest()
                            : shard->store->Get(requested_version);
    if (resolved.snapshot == nullptr) {
      throw std::invalid_argument("unknown snapshot version for dataset " +
                                  leader.request.dataset);
    }
    if (trace_.enabled()) resolve_start = trace_.Now();
    const Stopwatch resolve_timer;
    resolved.precompute = ResolvePrecompute(
        *shard->store, leader.request.dataset, *resolved.snapshot,
        leader.request.options, &resolved.cache_hit, &resolved.derived);
    resolved.precompute_seconds = resolve_timer.Seconds();
  } catch (...) {
    failure = std::current_exception();
  }
  // One resolution per batch, so one span: the leader's, annotated with
  // how the precompute was obtained.
  if (failure == nullptr && trace_.enabled() && leader.trace_id != 0) {
    trace_.Record(
        {leader.trace_id, "precompute-resolve",
         resolved.cache_hit ? "hit" : (resolved.derived ? "derive" : "scratch"),
         resolve_start, resolved.precompute_seconds});
  }

  if (failure == nullptr) {
    // Members were fed by the leader's resolution without touching the
    // cache, which is indistinguishable from a hit for accounting.
    Resolution member = resolved;
    member.cache_hit = true;
    member.derived = false;
    member.precompute_seconds = 0.0;
    for (std::size_t i = 1; i < batch->size(); ++i) {
      (*batch)[i].resolution = member;
    }
    resolved.leader = true;
    batch->front().resolution = std::move(resolved);
  }
  // Snapshot resolution is done (the shared_ptr keeps it alive from here,
  // or the batch failed): release the members' queued-version pins. On
  // success, hand members 2..n back to the front of the sweep queue, in
  // order, for whichever workers are free.
  const bool hand_back = failure == nullptr && batch->size() > 1;
  {
    core::MutexLock lock(shard->mu);
    for (const Task& task : *batch) {
      UnpinVersionLocked(shard, task.pinned_version);
    }
    if (hand_back) {
      shard->sweep.insert(shard->sweep.begin(),
                          std::make_move_iterator(batch->begin() + 1),
                          std::make_move_iterator(batch->end()));
      shard->queue_depth_gauge->Set(
          static_cast<std::int64_t>(shard->queued()));
    }
  }
  if (failure != nullptr) {
    // A failed resolution fails every member; nothing is handed back.
    // Count completion before fulfilling each promise, so a caller woken
    // by the future observes the counter already advanced.
    for (Task& task : *batch) {
      counters_.completed->Add();
      task.promise.set_exception(failure);
    }
    return false;
  }
  if (hand_back) {
    batch->erase(batch->begin() + 1, batch->end());
    shard->not_empty.NotifyAll();
  }
  return true;
}

void PlanningService::ExecuteTask(Task task, int worker_id) {
  const Resolution& resolved = task.resolution;
  try {
    const bool traced = trace_.enabled() && task.trace_id != 0;
    ServiceResult result;
    result.request = task.request;
    result.request.snapshot_version = resolved.snapshot->version;  // resolved
    result.stats.snapshot_version = resolved.snapshot->version;
    result.stats.worker_id = worker_id;
    result.stats.batch_size = resolved.batch_size;
    result.stats.execute_sequence = execute_sequence_.fetch_add(1);
    result.stats.trace_id = task.trace_id;
    result.stats.queue_seconds =
        std::chrono::duration<double>(resolved.pickup_time - task.submit_time)
            .count();
    if (traced) {
      trace_.Record({task.trace_id, "queue-wait", "", task.submit_trace_offset,
                     result.stats.queue_seconds});
    }
    result.stats.precompute_cache_hit = resolved.cache_hit;
    result.stats.precompute_derived = resolved.derived;
    result.stats.precompute_seconds = resolved.precompute_seconds;
    result.stats.precompute = resolved.precompute->stats;

    // Private context per request: queries share the immutable snapshot
    // and the const precompute (by shared_ptr, no copy), never the
    // mutable search scratch.
    double phase_start = traced ? trace_.Now() : 0.0;
    Stopwatch phase_timer;
    core::PlanningContext context = core::PlanningContext::BuildWithPrecompute(
        *resolved.snapshot->road, *resolved.snapshot->transit,
        task.request.options, resolved.precompute);
    result.stats.context_seconds = phase_timer.Seconds();
    if (traced) {
      trace_.Record({task.trace_id, "context-build", "", phase_start,
                     result.stats.context_seconds});
      phase_start = trace_.Now();
    }

    phase_timer.Reset();
    switch (task.request.planner) {
      case core::Planner::kEta:
        result.plan = core::RunEta(&context, core::SearchMode::kOnline);
        break;
      case core::Planner::kEtaPre:
        result.plan = core::RunEta(&context, core::SearchMode::kPrecomputed);
        break;
      case core::Planner::kVkTsp:
        result.plan = core::RunVkTsp(&context);
        break;
    }
    result.stats.plan_seconds = phase_timer.Seconds();
    if (traced) {
      trace_.Record({task.trace_id, "plan-search", "", phase_start,
                     result.stats.plan_seconds});
    }
    counters_.completed->Add();
    RecordRequestLatency(task.request.priority, result.stats,
                         resolved.leader);
    task.promise.set_value(std::move(result));
  } catch (...) {
    counters_.completed->Add();
    task.promise.set_exception(std::current_exception());
  }
}

}  // namespace ctbus::service
