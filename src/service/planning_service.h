// Sharded, batched, priority-aware planning service: per-dataset worker
// pools answering CT-Bus planning queries against versioned network
// snapshots, with a shared precompute cache and an async commit pipeline.
//
// Request lifecycle:
//   Submit(PlanRequest) -> the request's *dataset shard* (its own bounded
//   two-level priority queue + worker pool) -> a worker dequeues the
//   highest-priority request and, for sweep traffic, gathers every queued
//   request with the same batch key into one batch -> resolve snapshot
//   (SnapshotStore) once per batch -> fetch/compute precompute
//   (PrecomputeCache) once per batch -> hand the other members back to
//   the shard's workers -> build a private PlanningContext per request ->
//   run the requested planner -> fulfill each future with PlanResult +
//   stats.
//
// Sharding: every dataset registered with RegisterDataset gets its own
// worker pool and queue, so a flood of traffic against one hot city can
// never starve queries against another. The shards share one
// OverflowPolicy: Submit either blocks (default) or throws when a shard's
// queue is full.
//
// Priorities: requests are either interactive (default) or sweep
// (ScenarioRunner submits at sweep priority). Workers always drain the
// interactive queue first, and only sweep requests are batched, so an
// interactive request is never stuck behind more than the sweep work
// already in flight: at most one sweep request per worker of its shard
// (a batch leader's resolution plus its own plan, or one handed-back
// member).
//
// Batching: queued sweep requests whose precompute resolves identically —
// same (dataset, snapshot version as submitted, tau, precompute-estimator
// params) — form one batch. The worker that dequeues it (the leader)
// resolves the snapshot and the precompute once, amortizing cache misses
// even when the cache is disabled, then hands members 2..n back to the
// front of the shard's sweep queue carrying that resolution and plans its
// own member. Any free worker of the shard takes a handed-back member
// alone: it is never re-batched or re-resolved, and interactive requests
// still go first. A failed resolution fails every member, and nothing is
// handed back. Handed-back members count in the queue depth but were
// already admitted, so the queue may exceed queue_capacity by up to
// max_batch_size - 1 of them while new submits still block (or are
// refused). Every member builds a private PlanningContext, so batched
// results are bit-identical to serial runs.
//
// Commits: Commit applies a result synchronously; CommitAsync enqueues it
// on a dedicated commit thread and returns a future of the new version.
// Either way readers keep serving the prior snapshot — SnapshotStore
// publishes copy-on-write — and async commits apply in submission order,
// so they stack exactly like sequential Commit calls.
//
// Memory governance: the precompute cache evicts by a byte budget
// (ServiceOptions::cache_max_bytes, entry count as a secondary limit) and
// every commit is followed by a SnapshotRetentionPolicy pass over the
// dataset's snapshot store (keep-latest-K + byte budget). Versions pinned
// by queued explicit-version requests or pending async commits, and
// versions with resident precompute-cache entries (warm-start donors,
// in-flight derives), are never pruned and keep their lineage — so
// budgets only ever change recompute cost and stats, never planning
// results. Budgets are deliberately NOT part of PrecomputeKey or batch
// keys: two services differing only in budgets produce bit-identical
// plans.
//
// Observability: the service owns an obs::MetricsRegistry, the only record
// of service events (counters that service_stats() reads, per-dataset
// retention counters, per-phase/per-priority latency histograms, per-shard
// queue-depth gauges — all lock-free on the record path, always on) and an
// obs::TraceLog span recorder (queue-wait -> batch-assembly ->
// precompute-resolve -> context-build -> plan-search -> commit, one trace
// id per request, bounded ring, JSON-lines export). MetricsSnapshot()
// merges the registry with read-time views of the precompute cache and
// each shard's snapshot store; WriteMetricsJson serializes it. Tracing is
// off by default and costs one branch when off; neither metrics nor
// tracing ever changes a planning result.
//
// Every worker builds its own PlanningContext, so queries never share
// mutable state: results are bit-identical to running the same requests
// serially (the estimators are deterministic by construction). Snapshots
// are held via shared_ptr for the duration of a query, so commits can
// advance the city underneath without blocking or corrupting in-flight
// work.
#ifndef CTBUS_SERVICE_PLANNING_SERVICE_H_
#define CTBUS_SERVICE_PLANNING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eta.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "core/options.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/precompute_cache.h"
#include "service/snapshot_store.h"

namespace ctbus::service {

/// Two-level request priority. Workers drain every interactive request
/// before touching sweep traffic, so exploratory parameter sweeps cannot
/// starve interactive what-if queries.
enum class Priority {
  kInteractive = 0,
  kSweep = 1,
};

/// What Submit does when the target dataset shard's queue is full. The
/// policy is shared by every shard.
enum class OverflowPolicy {
  /// Block the submitting thread until the shard has room (backpressure).
  kBlock,
  /// Throw std::runtime_error immediately (load shedding).
  kReject,
};

struct ServiceOptions {
  /// Worker pool size *per dataset shard*. Every RegisterDataset call
  /// spawns this many dedicated workers for that dataset. 0 means
  /// std::thread::hardware_concurrency().
  /// ctbus-lint: key-exempt(service topology knob; requests are keyed per dataset+options, not per pool size)
  int num_threads = 1;
  /// Bounded request queue per shard (interactive + sweep combined);
  /// overflow_policy decides what Submit does at capacity. Batch members
  /// handed back to the queue after their leader's resolution were
  /// already admitted and may push it past capacity by up to
  /// max_batch_size - 1.
  /// ctbus-lint: key-exempt(admission control, never reaches the planner)
  std::size_t queue_capacity = 256;
  /// Precompute cache entries (0 disables caching).
  /// ctbus-lint: key-exempt(cache sizing changes hit rate, not entry identity)
  std::size_t cache_capacity = 16;
  /// Byte budget for the precompute cache: summed
  /// core::Precompute::ApproxBytes of resident ready entries (0 =
  /// unlimited). The entry-count capacity stays as a secondary limit;
  /// in-flight entries are never evicted, and a single entry larger than
  /// the whole budget is still admitted (see service/precompute_cache.h).
  /// ctbus-lint: key-exempt(cache sizing changes hit rate, not entry identity)
  std::size_t cache_max_bytes = 0;
  /// Directory for the precompute cache's disk spill ("" = disabled):
  /// ready entries are serialized on eviction (and at service teardown)
  /// and misses are first answered from disk, so a restarted service
  /// serves its first query without a single Dijkstra or Lanczos call.
  /// Spill files are keyed by PrecomputeKey *content* via a stable hash —
  /// the path only says where the bytes live, never what they are, and a
  /// stale or foreign file is a plain miss (see service/precompute_cache.h).
  /// ctbus-lint: key-exempt(on-disk artifacts are keyed by PrecomputeKey content, not by path; the directory changes where bytes persist, never what a key computes to)
  std::string cache_spill_dir;
  /// Snapshot retention applied to a dataset's SnapshotStore after every
  /// Commit / CommitAsync (defaults keep everything — prior behavior).
  /// RegisterDataset can override per dataset. Pruning never changes
  /// planning results: pinned and cache-resident versions are protected,
  /// and a request against a genuinely pruned version fails the same way
  /// an unknown version always has.
  /// ctbus-lint: key-exempt(retention prunes history; protected versions guarantee result-neutrality)
  SnapshotRetentionPolicy retention;
  /// Shared across shards; see OverflowPolicy.
  /// ctbus-lint: key-exempt(admission control, never reaches the planner)
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  /// Upper bound on how many same-key sweep requests share one dequeue's
  /// precompute resolution (1 disables batching). The leader hands the
  /// other members back to the shard's workers once it has resolved, so a
  /// batch plans on every free worker, not serially on one. Interactive
  /// requests are never batched: they are latency-critical, and
  /// concurrent same-key misses are already deduplicated inside
  /// PrecomputeCache.
  /// ctbus-lint: key-exempt(batching groups same-key requests; it cannot mix keys by construction)
  std::size_t max_batch_size = 8;
  /// Construct the service with every shard's workers parked: queued
  /// requests only start executing after Start(). Lets tests (and bulk
  /// loaders) enqueue a deterministic backlog, then observe strict
  /// priority/batch drain order.
  /// ctbus-lint: key-exempt(lifecycle toggle, no effect on results)
  bool start_paused = false;
  /// On a precompute-cache miss, derive the precompute from a resident
  /// ancestor version (PlanningContext::DerivePrecompute) instead of
  /// recomputing from scratch, when the snapshot store can produce the
  /// delta. Disable to force every miss down the from-scratch path (A/B
  /// measurement, paranoia).
  /// ctbus-lint: key-exempt(derive-vs-scratch differs only in carried Delta(e) values, whose error max_warm_start_depth bounds)
  bool warm_start_precompute = true;
  /// Bound on the warm start's carry-error compounding: a donor whose
  /// derivation chain is already this deep is not derived from again (the
  /// service falls back to an older shallower donor, or from scratch).
  /// From-scratch donors are always preferred when resident, so chains
  /// normally stay at depth 1; must be >= 1.
  /// ctbus-lint: key-exempt(derivation-chain bound, not a precompute input)
  int max_warm_start_depth = 8;
  /// Record per-request phase spans (queue-wait, batch-assembly,
  /// precompute-resolve, context-build, plan-search, commit) into a
  /// bounded in-memory ring (trace_log().Dump exports JSON lines). Off by
  /// default; when off the only cost is one branch per potential span.
  /// Flippable at runtime via trace_log().set_enabled(). Tracing NEVER
  /// affects planning results.
  /// ctbus-lint: key-exempt(observability toggle, result-neutral by contract)
  bool enable_tracing = false;
  /// Span ring-buffer capacity; past it the oldest spans are overwritten.
  /// ctbus-lint: key-exempt(observability sizing, result-neutral by contract)
  std::size_t trace_capacity = 4096;
};

struct PlanRequest {
  /// Name of a dataset previously registered with RegisterDataset.
  std::string dataset;
  /// Planner knobs, carried verbatim to the worker: the precompute fields
  /// (tau, precompute estimator) feed the cache/batch key, the sweepables
  /// (k, w, Tn, sn, planner variant toggles) stay free, and the thread
  /// counts (precompute_threads, eta_threads — each request may size its
  /// own frontier fan-out) are excluded from both keys because results
  /// are bit-identical at any setting (core/options.h).
  core::CtBusOptions options;
  core::Planner planner = core::Planner::kEtaPre;
  /// Snapshot to plan against; 0 = latest at execution time.
  std::uint64_t snapshot_version = 0;
  /// Queue class inside the dataset shard; see Priority.
  Priority priority = Priority::kInteractive;
};

/// Per-request observability.
struct RequestStats {
  /// The version actually planned against (resolved from 0 = latest).
  std::uint64_t snapshot_version = 0;
  bool precompute_cache_hit = false;
  /// True if this request's cache miss was served by warm-starting from an
  /// ancestor version's precompute rather than computing from scratch
  /// (always false on a cache hit).
  bool precompute_derived = false;
  /// Provenance and phase timings of the precompute this request planned
  /// over (shared with every other request on the same key): derivation
  /// depth, recomputed/carried Delta(e) counts, threads used.
  core::PrecomputeStats precompute;
  double queue_seconds = 0.0;       // Submit -> worker pickup
  double precompute_seconds = 0.0;  // cache lookup incl. compute on miss
  double context_seconds = 0.0;     // PlanningContext::BuildWithPrecompute
  double plan_seconds = 0.0;        // planner search
  /// The worker that planned this request (for a batch member, not
  /// necessarily its leader's).
  int worker_id = -1;
  /// Number of requests in the batch this one executed in (1 = unbatched).
  /// Non-leader members report precompute_cache_hit = true,
  /// precompute_derived = false and precompute_seconds = 0: the leader's
  /// resolution fed them without touching the cache. queue_seconds is the
  /// batch's pickup minus this request's submit, for every member.
  std::size_t batch_size = 1;
  /// Service-wide execution pickup order (0-based): assigned when a worker
  /// starts the request, so tests can assert drain order (interactive
  /// before sweep) without racing on wall-clock time.
  std::uint64_t execute_sequence = 0;
  /// Trace id shared by every span this request emitted (0 when tracing
  /// was disabled at submit time). Commit spans reuse it, so a request's
  /// whole lifecycle joins on one id in the trace dump.
  std::uint64_t trace_id = 0;
};

struct ServiceResult {
  core::PlanResult plan;
  /// The request as executed, with snapshot_version resolved (never 0).
  /// Commit reads the dataset and precompute parameters from here, so a
  /// result can never be committed against the wrong universe.
  PlanRequest request;
  RequestStats stats;
};

class PlanningService {
 public:
  explicit PlanningService(const ServiceOptions& options);
  ~PlanningService();  // calls Shutdown()

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Registers a city under `name`, seeding its SnapshotStore at version 1
  /// and spawning the dataset's worker-pool shard. Registering an existing
  /// name (or registering after Shutdown) throws. The dataset inherits
  /// ServiceOptions::retention; the overload pins a per-dataset policy
  /// (DatasetCatalog uses it for descriptor-supplied budgets).
  void RegisterDataset(const std::string& name, graph::RoadNetwork road,
                       graph::TransitNetwork transit);
  void RegisterDataset(const std::string& name, graph::RoadNetwork road,
                       graph::TransitNetwork transit,
                       const SnapshotRetentionPolicy& retention);

  /// Registers a gen:: preset by registry name (see gen::DatasetNames()).
  void RegisterPreset(const std::string& name, double scale = 1.0);

  bool HasDataset(const std::string& name) const CTBUS_EXCLUDES(datasets_mu_);
  std::vector<std::string> DatasetNames() const CTBUS_EXCLUDES(datasets_mu_);

  std::uint64_t LatestVersion(const std::string& dataset) const;
  SnapshotPtr Snapshot(const std::string& dataset,
                       std::uint64_t version = 0) const;

  /// Releases workers parked by ServiceOptions::start_paused (no-op when
  /// the service started running, or after Shutdown).
  void Start();

  /// Enqueues a request on its dataset's shard; at capacity, blocks or
  /// throws per OverflowPolicy. Throws std::invalid_argument for an
  /// unknown dataset and std::runtime_error after Shutdown. Errors during
  /// execution (e.g. unknown snapshot version) surface through the future.
  std::future<ServiceResult> Submit(PlanRequest request);

  /// Submit + wait. Convenience for callers without their own pipeline.
  /// Do not call while the service is paused (it would deadlock by
  /// design: nothing drains the queue before Start()).
  ServiceResult Plan(PlanRequest request);

  /// Commits a result's route to its dataset, advancing the snapshot
  /// version. The dataset, precompute parameters, and planned-against
  /// version come from the result itself (ServiceResult::request), so the
  /// route's edge ids are always mapped through the universe they were
  /// planned in. The route is applied on top of the *latest* version, so
  /// sequential commits stack even when their plans were computed against
  /// the same older snapshot. Returns the new version id. In-flight
  /// queries against older versions are unaffected; later latest-version
  /// requests see the new city.
  std::uint64_t Commit(const ServiceResult& result);

  /// Commit, but applied off the caller thread by the service's dedicated
  /// commit worker. Async commits apply strictly in CommitAsync-call
  /// order (FIFO), so a sequence of CommitAsync calls stacks exactly like
  /// the same sequence of Commit calls; readers keep serving the prior
  /// snapshot until each new version is published. Errors surface through
  /// the returned future. Throws std::runtime_error after Shutdown.
  std::future<std::uint64_t> CommitAsync(ServiceResult result);

  PrecomputeCache::Stats cache_stats() const { return cache_.stats(); }

  /// Service-wide event counts, read from the registry counters one field
  /// at a time. Exact once the service is idle, or for the requests a
  /// caller has already waited on; while requests run, fields read at
  /// slightly different moments and need not agree with each other.
  struct ServiceStats {
    /// Requests admitted to a shard queue (refused submits never count).
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    /// Submissions refused by OverflowPolicy::kReject (not counted in
    /// `submitted`).
    std::uint64_t rejected = 0;
    /// Cache misses answered from scratch vs. derived from an ancestor
    /// version's precompute (Execute and Commit both count).
    std::uint64_t precomputes_from_scratch = 0;
    std::uint64_t precomputes_derived = 0;
    /// Multi-request batches executed, and how many requests rode along in
    /// them beyond their leaders (each saved one precompute resolution).
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    /// Commits applied by the async pipeline (CommitAsync only).
    std::uint64_t async_commits = 0;
    /// Snapshot versions pruned / lineage records trimmed by the
    /// post-commit retention passes, summed across datasets.
    std::uint64_t snapshots_pruned = 0;
    std::uint64_t lineage_trimmed = 0;
  };
  ServiceStats service_stats() const;

  /// Per-dataset memory accounting: store sizes read at call time, pins
  /// under the shard's lock, retention totals from the dataset's
  /// `dataset.<name>.retention.*` registry counters.
  struct DatasetMemoryStats {
    /// Resident snapshot versions and their summed ApproxBytes.
    std::size_t resident_versions = 0;
    std::size_t snapshot_bytes = 0;
    /// Lineage records currently resident in the store.
    std::size_t lineage_records = 0;
    /// Distinct versions pinned by queued requests / pending commits.
    std::size_t pinned_versions = 0;
    /// Cumulative retention-pass removals for this dataset.
    std::uint64_t snapshots_pruned = 0;
    std::uint64_t lineage_trimmed = 0;
  };
  DatasetMemoryStats dataset_memory_stats(const std::string& dataset) const;

  /// One deterministically ordered (name-sorted) view of every service
  /// metric: the registry's counters / gauges / histograms (the same
  /// counters service_stats() reads) plus views computed at read time:
  /// `cache.*` from the precompute cache and `dataset.<name>.snapshot.*`
  /// from each shard's snapshot store. Metric names are stable API —
  /// bench JSON, dashboards, and tests key on them; rename only with a
  /// deprecation note.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// MetricsSnapshot() serialized as one JSON object (see
  /// obs::WriteMetricsJson for the format).
  void WriteMetricsJson(std::ostream& out) const;

  /// The span recorder (enable/disable at runtime, Dump for JSON lines).
  /// Initial state and capacity come from ServiceOptions.
  obs::TraceLog& trace_log() { return trace_; }
  const obs::TraceLog& trace_log() const { return trace_; }

  /// Worker threads per dataset shard (the resolved ServiceOptions value).
  int num_threads() const { return threads_per_shard_; }
  /// Total workers across all registered dataset shards.
  int num_workers() const;

  /// Drains every shard's queue and the commit pipeline, waits for
  /// in-flight work, joins all pools. Further Submits throw. Idempotent;
  /// called by the destructor.
  void Shutdown();

 private:
  /// A batch's one snapshot + precompute resolution, as one task reports
  /// it: the leader with its true provenance, members as RequestStats
  /// documents for non-leaders.
  struct Resolution {
    SnapshotPtr snapshot;
    /// Null until the batch leader has resolved.
    PrecomputeCache::PrecomputePtr precompute;
    /// When the leader picked the batch up: queue_seconds ends here.
    std::chrono::steady_clock::time_point pickup_time;
    std::size_t batch_size = 1;
    /// Only the leader records into the precompute histogram.
    bool leader = false;
    bool cache_hit = false;
    bool derived = false;
    double precompute_seconds = 0.0;
  };

  struct Task {
    PlanRequest request;
    std::promise<ServiceResult> promise;
    std::chrono::steady_clock::time_point submit_time;
    /// Batch identity, precomputed at Submit for sweep requests only
    /// (interactive requests never batch), so the worker's queue scan
    /// under the shard mutex is a plain field comparison instead of
    /// constructing keys per scanned task.
    PrecomputeKey batch_key;
    /// Snapshot version pinned against retention while this task is
    /// queued (0 = none; only explicit-version requests pin — "latest"
    /// can never be pruned). Released by its batch leader's ResolveBatch
    /// once the snapshot shared_ptr is resolved.
    std::uint64_t pinned_version = 0;
    /// Span correlation (0 = tracing was off at Submit): the id every
    /// phase span of this request carries, and where on the trace
    /// timeline the queue-wait span starts.
    std::uint64_t trace_id = 0;
    double submit_trace_offset = 0.0;
    /// Set by the batch leader before it hands this member back to the
    /// queue (precompute != nullptr marks a handed-back member); the held
    /// SnapshotPtr keeps the snapshot alive after the pin is released.
    Resolution resolution;
  };

  /// One dataset's serving state: its snapshot store plus a private
  /// two-level queue and worker pool. Shards never share queue locks, so
  /// backpressure on one dataset cannot block submitters to another.
  struct Shard {
    explicit Shard(std::shared_ptr<SnapshotStore> snapshot_store)
        : store(std::move(snapshot_store)) {}

    std::shared_ptr<SnapshotStore> store;
    /// Retention enforced after each commit to this dataset.
    SnapshotRetentionPolicy retention;
    core::Mutex mu;
    core::CondVar not_empty;
    core::CondVar not_full;
    core::CondVar workers_done;
    std::deque<Task> interactive CTBUS_GUARDED_BY(mu);  // drained first
    /// Batched by key; handed-back members sit at the front.
    std::deque<Task> sweep CTBUS_GUARDED_BY(mu);
    int live_workers CTBUS_GUARDED_BY(mu) = 0;
    std::vector<std::thread> workers CTBUS_GUARDED_BY(mu);
    /// version -> pin count for queued explicit-version requests and
    /// pending async commits; pinned versions survive retention passes.
    std::unordered_map<std::uint64_t, int> version_pins CTBUS_GUARDED_BY(mu);
    /// Live "service.shard.<dataset>.queue_depth" gauge and cumulative
    /// "dataset.<dataset>.retention.*" counters. Written once at
    /// RegisterDataset before the shard is published, const afterwards
    /// (the instruments record through relaxed atomics), so the pointers
    /// need no guard.
    obs::Gauge* queue_depth_gauge = nullptr;
    obs::Counter* snapshots_pruned = nullptr;
    obs::Counter* lineage_trimmed = nullptr;

    /// Includes handed-back members: the wait loop, the shutdown drain
    /// and the queue-depth gauge all need them.
    std::size_t queued() const CTBUS_REQUIRES(mu) {
      return interactive.size() + sweep.size();
    }
  };

  struct CommitTask {
    ServiceResult result;
    std::promise<std::uint64_t> promise;
    /// The planned-against version, pinned from CommitAsync until the
    /// commit applies, so retention cannot prune the snapshot the
    /// result's edge ids resolve through. The shard is captured so the
    /// unpin cannot race a dataset lookup.
    std::shared_ptr<Shard> shard;
    std::uint64_t pinned_version = 0;
  };

  void WorkerLoop(Shard* shard, int worker_id) CTBUS_EXCLUDES(shard->mu);
  void CommitLoop() CTBUS_EXCLUDES(commit_mu_);
  /// Dequeues the next batch from `shard` (caller holds shard->mu): the
  /// front interactive task alone, a handed-back sweep member alone, or
  /// the front sweep task plus every queued sweep task sharing its batch
  /// key (up to max_batch_size_).
  std::vector<Task> NextBatchLocked(Shard* shard) CTBUS_REQUIRES(shard->mu);
  /// The leader's half of a batch: resolves snapshot + precompute once,
  /// releases the members' version pins, stamps each task's Resolution
  /// and hands members 2..n back to the front of the sweep queue, leaving
  /// only the leader in `batch`. On a failed resolution fails every
  /// member's promise and returns false.
  bool ResolveBatch(Shard* shard, std::vector<Task>* batch)
      CTBUS_EXCLUDES(shard->mu);
  /// Plans one resolved task with a private context and fulfills its
  /// promise: a batch leader right after ResolveBatch, or a handed-back
  /// member on whichever worker dequeued it.
  void ExecuteTask(Task task, int worker_id);
  std::uint64_t CommitNow(const ServiceResult& result);
  std::shared_ptr<SnapshotStore> Store(const std::string& dataset) const
      CTBUS_EXCLUDES(datasets_mu_);
  std::shared_ptr<Shard> FindShard(const std::string& dataset) const
      CTBUS_EXCLUDES(datasets_mu_);

  /// Decrements `version`'s pin count on `shard` (no-op for version 0).
  void UnpinVersion(Shard* shard, std::uint64_t version)
      CTBUS_EXCLUDES(shard->mu);
  /// Same, with shard->mu already held by the caller.
  void UnpinVersionLocked(Shard* shard, std::uint64_t version)
      CTBUS_REQUIRES(shard->mu);
  /// Runs the shard's retention policy over its snapshot store,
  /// protecting pinned versions and every version with a resident
  /// precompute-cache entry for `dataset`. Called after each commit;
  /// no-op when the policy is unlimited. Lock order: takes shard->mu and
  /// holds it ACROSS the store's ApplyRetention (shard -> store); the
  /// CTBUS_EXCLUDES here plus the EXCLUDES on every SnapshotStore entry
  /// point make the inverse order (store lock held while taking
  /// shard->mu) inexpressible without a compile error.
  void ApplyRetention(const std::string& dataset, Shard* shard)
      CTBUS_EXCLUDES(shard->mu);

  /// Cache lookup with warm start: on a miss, tries to derive from the
  /// nearest resident ancestor version before computing from scratch.
  PrecomputeCache::PrecomputePtr ResolvePrecompute(
      SnapshotStore& store, const std::string& dataset,
      const NetworkSnapshot& snapshot, const core::CtBusOptions& options,
      bool* cache_hit, bool* derived);

  /// The registry instruments the hot path records through, resolved once
  /// at construction. service_stats() reads the counters; latency
  /// histograms are indexed [phase][priority class].
  struct PhaseHistograms {
    obs::Histogram* queue = nullptr;
    obs::Histogram* precompute = nullptr;  // batch leaders only
    obs::Histogram* context = nullptr;
    obs::Histogram* plan = nullptr;
    obs::Histogram* total = nullptr;  // queue + resolve + context + plan
  };
  struct ServiceCounters {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* precomputes_from_scratch = nullptr;
    obs::Counter* precomputes_derived = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batched_requests = nullptr;
    obs::Counter* commits = nullptr;  // CommitNow successes (sync + async)
    obs::Counter* async_commits = nullptr;
    obs::Counter* snapshots_pruned = nullptr;
    obs::Counter* lineage_trimmed = nullptr;
  };

  /// Records one completed request's phase timings. Only batch leaders
  /// record into the precompute histogram — members ride on the leader's
  /// resolution and would skew it with zeros.
  void RecordRequestLatency(Priority priority, const RequestStats& stats,
                            bool batch_leader);

  const bool warm_start_precompute_;
  const int max_warm_start_depth_;
  /// Retention for datasets registered without a per-dataset policy.
  const SnapshotRetentionPolicy default_retention_;
  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  ServiceCounters counters_;
  PhaseHistograms latency_[2];  // [static_cast<int>(Priority)]
  PrecomputeCache cache_;
  const std::size_t queue_capacity_;
  const std::size_t max_batch_size_;
  const OverflowPolicy overflow_policy_;
  int threads_per_shard_ = 1;

  /// True until Start(); workers park instead of dequeuing. Read inside
  /// shard-mu-guarded wait predicates. Start() flips it, then takes and
  /// releases every shard's mu before notifying — that empty critical
  /// section is what guarantees no parked worker misses the wakeup (a
  /// worker that read paused_ == true is either still holding mu, or will
  /// re-check the predicate on the notify). Do not drop it.
  std::atomic<bool> paused_{false};
  /// Set by Shutdown (under every shard's mu) to drain-and-join.
  std::atomic<bool> shutting_down_{false};

  mutable core::Mutex datasets_mu_;
  std::unordered_map<std::string, std::shared_ptr<Shard>> shards_
      CTBUS_GUARDED_BY(datasets_mu_);

  std::atomic<std::uint64_t> execute_sequence_{0};
  std::atomic<int> next_worker_id_{0};

  core::Mutex commit_mu_;
  core::CondVar commit_cv_;
  std::deque<CommitTask> commit_queue_ CTBUS_GUARDED_BY(commit_mu_);
  bool commit_shutdown_ CTBUS_GUARDED_BY(commit_mu_) = false;
  std::thread commit_worker_ CTBUS_GUARDED_BY(commit_mu_);
};

}  // namespace ctbus::service

#endif  // CTBUS_SERVICE_PLANNING_SERVICE_H_
