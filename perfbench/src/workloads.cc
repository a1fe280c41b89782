#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "connectivity/edge_increment.h"
#include "connectivity/natural_connectivity.h"
#include "core/baselines.h"
#include "core/eta.h"
#include "core/planning_context.h"
#include "io/snapshot.h"
#include "linalg/lanczos.h"
#include "linalg/rng.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "oracle.h"
#include "service/dataset_catalog.h"
#include "service/planning_service.h"
#include "service/scenario_runner.h"
#include "service/snapshot_store.h"

namespace perfbench {
namespace {

namespace core = ctbus::core;
namespace fs = std::filesystem;
namespace io = ctbus::io;
namespace linalg = ctbus::linalg;
namespace net = ctbus::net;
namespace service = ctbus::service;

// ------------------------------------------------------------- constants --
// Every workload serves the chicago preset at scale 0.5 (387 stops) at the
// paper defaults Tn = 3, sn = 5000, tau = 500.
constexpr char kDataset[] = "chicago";
constexpr double kScale = 0.5;
constexpr double kBaseTau = 500.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// interactive: open loop over two connections to two shard workers, at
// about 40% of what two workers answer per second. At 60% (30 req/s) a
// host slowdown of ~20%, which this class of shared VM shows over minutes,
// pushed the p95 from 55 to 135 ms between runs of the same code.
constexpr double kInteractiveRate = 20.0;
constexpr double kInteractiveSloMs = 250.0;
constexpr int kInteractiveWorkers = 2;
constexpr int kConnections = 2;
// online_eta: closed loop, one client, one worker, eta_threads = 2, the
// paper's 50 probes x 10 Lanczos steps, iterations capped. With three
// frontier threads a host slowdown that cost 10% more CPU stretched the
// p95 by 50% (threads waiting on a descheduled sibling); two leave the
// 4-vCPU host room to absorb it.
constexpr int kOnlineIterationCap = 4;
constexpr int kOnlineEtaThreads = 2;
constexpr double kOnlineSloMs = 1000.0;
// sweep_commit: two workers, precompute_threads = 2, warm start on, the
// service's default batching.
constexpr int kSweepWorkers = 2;
constexpr int kSweepPrecomputeThreads = 2;
constexpr int kSweepCells = 8;  // k in {10, 30} x w in {0.3, 0.7} x 2 planners
constexpr double kSweepSloMs = 2500.0;
// Each sweep uses a fresh tau so its Delta(e) loop runs from scratch. The
// cycle spans half a metre, so every tau realizes the same candidate
// universe (stop pairs within tau) and rounds cost the same whatever the
// seed's offset into the cycle.
constexpr double kTauStep = 1.0 / 1024;
constexpr int kTauCycle = 512;
// Restart + commit samples after the timed window of interactive and
// online_eta (each restart is also a setup_s sample).
constexpr int kCommitSamples = 21;
// Every end-to-end percentile up to p95 must be supported by the sample.
constexpr double kTailPercentile = 95.0;
// A window does a fixed amount of work, sized from --seconds at these
// nominal rates of the reference 4-vCPU VM, so both sides of a comparison
// run the same requests whatever their speed.
constexpr double kOnlineNominalPerSecond = 8.0;
constexpr double kSweepNominalRoundsPerSecond = 1.6;
// Requests per block of each mix (see MakeDraws).
constexpr std::size_t kInteractiveBlock = 27;
constexpr std::size_t kOnlineBlock = 9;

enum class Kind { kInteractive, kOnline, kSweep };

Kind KindOf(const std::string& workload) {
  if (workload == "interactive") return Kind::kInteractive;
  if (workload == "online_eta") return Kind::kOnline;
  if (workload == "sweep_commit") return Kind::kSweep;
  throw std::invalid_argument("unknown workload " + workload);
}

core::Planner PlannerOf(Mode mode) {
  switch (mode) {
    case Mode::kEtaPre:
      return core::Planner::kEtaPre;
    case Mode::kVkTsp:
      return core::Planner::kVkTsp;
    case Mode::kOnline:
      return core::Planner::kEta;
  }
  return core::Planner::kEtaPre;
}

core::CtBusOptions BaseOptions() {
  core::CtBusOptions options;
  options.k = 30;
  options.w = 0.5;
  options.tau = kBaseTau;
  options.max_turns = 3;
  options.seed_count = 5000;
  return options;
}

core::CtBusOptions OnlineOptions() {
  core::CtBusOptions options = BaseOptions();
  options.max_iterations = kOnlineIterationCap;
  options.eta_threads = kOnlineEtaThreads;
  return options;
}

core::CtBusOptions SweepOptions(double tau) {
  core::CtBusOptions options = BaseOptions();
  options.tau = tau;
  options.precompute_threads = kSweepPrecomputeThreads;
  return options;
}

core::CtBusOptions OptionsFor(Kind kind) {
  switch (kind) {
    case Kind::kInteractive:
      return BaseOptions();
    case Kind::kOnline:
      return OnlineOptions();
    case Kind::kSweep:
      return SweepOptions(kBaseTau);
  }
  return BaseOptions();
}

service::PlanRequest MakeRequest(const core::CtBusOptions& options, int k,
                                 double w, core::Planner planner,
                                 std::uint64_t version = 0) {
  service::PlanRequest request;
  request.dataset = kDataset;
  request.options = options;
  request.options.k = k;
  request.options.w = w;
  request.planner = planner;
  request.snapshot_version = version;
  return request;
}

void SleepUntil(double seconds) {
  using Clock = std::chrono::steady_clock;
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds))));
}

double Ms(double seconds) { return seconds * 1e3; }

// ------------------------------------------------------------ accounting --

void AddMetric(RunResult* result, std::string name, double value,
               std::string unit) {
  result->metrics.push_back({std::move(name), value, std::move(unit)});
}

// -------------------------------------------------------------- prepare --

struct Prepared {
  std::string snapshot_path;
  std::string spill_dir;
  std::string spill_file;
  io::Snapshot snapshot;     // the served version-1 networks
  core::Precompute reference;  // serial from-scratch precompute at tau 500
};

service::DatasetDescriptor Descriptor(const Prepared& prepared) {
  service::DatasetDescriptor descriptor;
  descriptor.name = kDataset;
  descriptor.preset = "chicago";
  descriptor.preset_scale = kScale;
  descriptor.snapshot_path = prepared.snapshot_path;
  return descriptor;
}

bool SamePrecompute(core::Precompute a, core::Precompute b) {
  // Provenance stats (timings, thread counts) are not content.
  a.stats = {};
  b.stats = {};
  std::vector<std::uint8_t> a_bytes;
  std::vector<std::uint8_t> b_bytes;
  io::EncodePrecompute(a, &a_bytes);
  io::EncodePrecompute(b, &b_bytes);
  return a_bytes == b_bytes;
}

// Builds the served artifacts: the CTBS snapshot (written by the catalog
// on first registration) and the spilled precompute (written at service
// teardown), then the serial reference the oracle plans over.
Prepared Prepare(const RunConfig& config, RunResult* result) {
  Prepared prepared;
  fs::create_directories(config.state_dir);
  prepared.snapshot_path = (fs::path(config.state_dir) / "chicago.ctbs").string();
  prepared.spill_dir = (fs::path(config.state_dir) / "spill").string();
  std::string error;
  {
    service::ServiceOptions options;
    options.cache_spill_dir = prepared.spill_dir;
    service::PlanningService staging(options);
    if (!service::DatasetCatalog(&staging).Register(Descriptor(prepared),
                                                    &error)) {
      throw std::runtime_error("dataset registration failed: " + error);
    }
    core::CtBusOptions staging_options = BaseOptions();
    staging_options.precompute_threads = 2;
    staging.Plan(MakeRequest(staging_options, 30, 0.5, core::Planner::kEtaPre));
  }
  auto snapshot = io::LoadSnapshot(prepared.snapshot_path, &error);
  if (!snapshot.has_value()) {
    throw std::runtime_error("snapshot load failed: " + error);
  }
  prepared.snapshot = std::move(*snapshot);
  prepared.reference = core::PlanningContext::RunPrecompute(
      prepared.snapshot.road, prepared.snapshot.transit, BaseOptions());

  std::vector<std::string> spills;
  for (const auto& entry : fs::directory_iterator(prepared.spill_dir)) {
    if (entry.is_regular_file()) spills.push_back(entry.path().string());
  }
  if (spills.size() != 1) {
    throw std::runtime_error("expected one spill file, found " +
                             std::to_string(spills.size()));
  }
  prepared.spill_file = spills.front();
  const auto spilled = io::LoadPrecomputeCacheEntry(prepared.spill_file, &error);
  const bool same = spilled.has_value() &&
                    SamePrecompute(spilled->precompute, prepared.reference);
  Tally(result,
        {same, !same, "spilled precompute differs from the serial reference"},
        0);
  return prepared;
}

// ----------------------------------------------------------------- stack --

// One serving process: the service and, for interactive, the front door.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Reset(); }
  void Reset() {
    client.Close();
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
  }
  std::unique_ptr<service::PlanningService> service;
  std::unique_ptr<net::Server> server;
  net::Client client;
  // NowSeconds() minus the service trace log's clock.
  double trace_offset = 0.0;
};

service::ServiceOptions ServingOptions(Kind kind, const Prepared& prepared,
                                       bool trace) {
  service::ServiceOptions options;
  options.num_threads = kind == Kind::kInteractive ? kInteractiveWorkers
                        : kind == Kind::kOnline    ? 1
                                                   : kSweepWorkers;
  if (kind != Kind::kSweep) options.cache_spill_dir = prepared.spill_dir;
  if (trace) options.trace_capacity = std::size_t{1} << 17;
  return options;
}

/// Answer as the front door would send it, for in-process results too.
net::ResponseFrame AsResponse(std::uint64_t id,
                              const service::ServiceResult& result) {
  net::ResponseFrame response = net::MakeOkResponse(id, result);
  const auto& stats = result.stats;
  response.server_seconds = stats.queue_seconds + stats.precompute_seconds +
                            stats.context_seconds + stats.plan_seconds;
  return response;
}

/// Sends one request on the stack's own connection, or submits it
/// in-process when the workload has no front door.
bool Ask(Stack* stack, const service::PlanRequest& request, std::uint64_t id,
         net::ResponseFrame* response, std::string* error) {
  if (stack->server != nullptr) {
    net::RequestFrame frame;
    frame.request_id = id;
    frame.request = request;
    return stack->client.Call(frame, response, error);
  }
  try {
    *response = AsResponse(id, stack->service->Plan(request));
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

/// Service construction to first OK answer (checked against the oracle).
double SetUp(Kind kind, const Prepared& prepared, bool trace,
             const Oracle& oracle, Stack* stack, RunResult* result,
             std::vector<Phase>* phases) {
  stack->Reset();
  const PhaseClock clock;
  const double start = NowSeconds();
  stack->service = std::make_unique<service::PlanningService>(
      ServingOptions(kind, prepared, trace));
  stack->trace_offset = NowSeconds() - stack->service->trace_log().Now();
  std::string error;
  if (!service::DatasetCatalog(stack->service.get())
           .Register(Descriptor(prepared), &error)) {
    throw std::runtime_error("dataset registration failed: " + error);
  }
  if (kind == Kind::kInteractive) {
    stack->server = std::make_unique<net::Server>(stack->service.get(),
                                                  net::ServerOptions{});
    stack->server->Start();
    if (!stack->client.Connect(stack->server->port(), &error)) {
      throw std::runtime_error("connect failed: " + error);
    }
  }
  const core::Planner planner =
      kind == Kind::kOnline ? core::Planner::kEta : core::Planner::kEtaPre;
  net::ResponseFrame response;
  const bool answered = Ask(stack, MakeRequest(OptionsFor(kind), 30, 0.5, planner),
                            0, &response, &error);
  const double seconds = NowSeconds() - start;
  phases->push_back(clock.Stop("setup", kind == Kind::kSweep ? 2 : 1));
  Verdict verdict = oracle.Check(answered, error, response, 30, 0.5, planner);
  verdict.why = "setup answer: " + verdict.why;
  Tally(result, verdict, net::ResponseChecksum(response));
  return seconds;
}

// ---------------------------------------------------------------- window --

/// One answered (or failed) request of a timed window.
struct Answer {
  double due = 0.0;         // open loop: when it was due to be sent
  double send_start = 0.0;  // Send / Submit called
  double send_end = 0.0;    // Send / Submit returned
  double recv = 0.0;        // answer in hand
  bool ok = false;          // transport OK, status OK and oracle agrees
  net::ResponseFrame response;
  std::uint64_t trace_id = 0;  // service trace id (in-process answers)
};

/// What a timed window measured.
struct Window {
  Phase phase;
  std::vector<Answer> answers;
  std::vector<double> latency_ms;   // OK answers only
  std::vector<double> lateness_ms;  // generator lateness per request
  double slo_ms = 0.0;
  std::size_t within_slo = 0;
  double cells_per_s = 0.0;
  std::size_t answered = 0;          // answers counted for CPU per answer
  std::vector<double> commit_to_warm_ms;
  std::vector<double> commit_ms;
};

struct Traffic {
  std::uint64_t seed = 0;
  // Requests (interactive, online_eta) or rounds (sweep_commit).
  std::size_t count = 0;
  // sweep_commit: rounds already run in this process, so no tau repeats.
  std::size_t first_round = 0;
};

std::size_t RoundUp(std::size_t n, std::size_t block) {
  return (n + block - 1) / block * block;
}

/// Window size for `seconds` of work with at least `min_answers` answers.
Traffic SizeTraffic(Kind kind, std::uint64_t seed, double seconds,
                    std::size_t min_answers) {
  Traffic traffic;
  traffic.seed = seed;
  switch (kind) {
    case Kind::kInteractive:
      traffic.count = RoundUp(
          std::max(min_answers, static_cast<std::size_t>(std::ceil(
                                    seconds * kInteractiveRate))),
          kInteractiveBlock);
      break;
    case Kind::kOnline:
      traffic.count = RoundUp(
          std::max(min_answers, static_cast<std::size_t>(std::ceil(
                                    seconds * kOnlineNominalPerSecond))),
          kOnlineBlock);
      break;
    case Kind::kSweep:
      traffic.count = std::max(
          (min_answers + kSweepCells - 1) / kSweepCells,
          static_cast<std::size_t>(std::ceil(seconds * kSweepNominalRoundsPerSecond)));
      break;
  }
  return traffic;
}

void CheckAnswers(const Oracle& oracle, const std::vector<Draw>& draws,
                  Window* window, RunResult* result) {
  for (std::size_t i = 0; i < window->answers.size(); ++i) {
    Answer& answer = window->answers[i];
    const Draw& draw = draws[i];
    const Verdict verdict =
        oracle.Check(answer.recv > 0.0, "transport failure", answer.response,
                     draw.k, draw.w, PlannerOf(draw.mode));
    Tally(result, verdict, net::ResponseChecksum(answer.response));
    answer.ok = verdict.ok;
    if (!answer.ok) continue;
    const double latency = Ms(answer.recv - answer.due);
    window->latency_ms.push_back(latency);
    if (latency <= window->slo_ms) ++window->within_slo;
  }
}

// interactive: open loop over kConnections connections. Request i is due
// at start + i / rate on connection i % kConnections; its latency runs
// from that due time, so a stall is charged to every request it delays.
Window RunOpenLoop(Stack* stack, const Oracle& oracle, const Traffic& traffic,
                   RunResult* result) {
  const std::size_t n = traffic.count;
  const std::vector<Draw> draws = MakeDraws(Mix::kInteractive, traffic.seed, n);
  Window window;
  window.slo_ms = kInteractiveSloMs;
  window.answers.resize(n);
  net::Client clients[kConnections];
  std::string error;
  for (net::Client& client : clients) {
    if (!client.Connect(stack->server->port(), &error)) {
      throw std::runtime_error("connect failed: " + error);
    }
  }
  const PhaseClock clock;
  const double start = NowSeconds() + 0.02;
  for (std::size_t i = 0; i < n; ++i) {
    window.answers[i].due = start + static_cast<double>(i) / kInteractiveRate;
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c]() {
      std::string send_error;
      for (std::size_t i = c; i < n; i += kConnections) {
        Answer& answer = window.answers[i];
        SleepUntil(answer.due);
        net::RequestFrame frame;
        frame.request_id = i + 1;
        frame.request = MakeRequest(BaseOptions(), draws[i].k, draws[i].w,
                                    PlannerOf(draws[i].mode));
        answer.send_start = NowSeconds();
        const bool sent = clients[c].Send(frame, &send_error);
        answer.send_end = NowSeconds();
        if (!sent) {
          clients[c].Close();  // unblocks this connection's receiver
          return;
        }
      }
    });
    threads.emplace_back([&, c]() {
      std::string receive_error;
      for (std::size_t i = c; i < n; i += kConnections) {
        Answer& answer = window.answers[i];
        if (!clients[c].Receive(&answer.response, &receive_error)) return;
        answer.recv = NowSeconds();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Below saturation by design, so its parallelism tracks the offered load,
  // not placement: not a phase to flag.
  window.phase = clock.Stop("window", 1);
  for (net::Client& client : clients) client.Close();
  CheckAnswers(oracle, draws, &window, result);
  for (const Answer& answer : window.answers) {
    if (answer.send_start > 0.0) {
      window.lateness_ms.push_back(Ms(std::max(0.0, answer.send_start - answer.due)));
    }
  }
  window.answered = window.latency_ms.size();
  const double span = window.answers.back().recv > 0.0
                          ? window.answers.back().recv - start
                          : window.phase.wall_seconds;
  window.cells_per_s = static_cast<double>(window.answered) / span;
  return window;
}

// online_eta: closed loop of online-ETA queries submitted in-process (the
// front door does not carry eta_threads), one at a time.
Window RunClosedLoop(Stack* stack, const Oracle& oracle,
                     const Traffic& traffic, RunResult* result) {
  const std::vector<Draw> draws =
      MakeDraws(Mix::kOnline, traffic.seed, traffic.count);
  Window window;
  window.slo_ms = kOnlineSloMs;
  const PhaseClock clock;
  const double start = NowSeconds();
  double last_answer = start;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const Draw& draw = draws[i];
    Answer answer;
    answer.send_start = NowSeconds();
    answer.due = answer.send_start;
    window.lateness_ms.push_back(Ms(answer.send_start - last_answer));
    try {
      auto future = stack->service->Submit(
          MakeRequest(OnlineOptions(), draw.k, draw.w, PlannerOf(draw.mode)));
      answer.send_end = NowSeconds();
      const service::ServiceResult served = future.get();
      answer.recv = NowSeconds();
      answer.response = AsResponse(i + 1, served);
      answer.trace_id = served.stats.trace_id;
    } catch (const std::exception& e) {
      answer.response.status = net::ResponseStatus::kError;
      answer.response.message = e.what();
    }
    last_answer = NowSeconds();
    window.answers.push_back(std::move(answer));
  }
  window.phase = clock.Stop("window", kOnlineEtaThreads);
  CheckAnswers(oracle, draws, &window, result);
  window.answered = window.latency_ms.size();
  window.cells_per_s =
      static_cast<double>(window.answered) / window.phase.wall_seconds;
  return window;
}

// sweep_commit rounds, kept for the post-window oracle and the trace.
struct Round {
  double tau = 0.0;
  std::uint64_t version = 0;  // the sweep's
  std::vector<service::SweepCell> cells;
  std::size_t best = 0;
  // The warm answer: asked at warm_tau on the committed version.
  std::uint64_t committed = 0;
  double warm_tau = 0.0;
  bool warm_answered = false;
  std::string warm_error;
  service::ServiceResult warm;
  double sweep_start = 0.0, sweep_end = 0.0;
  double commit_start = 0.0, commit_end = 0.0;
  double submit_end = 0.0, warm_end = 0.0;
};

std::size_t BestCell(const std::vector<service::SweepCell>& cells) {
  // Highest objective; ties broken on (k, w, planner) so the choice does
  // not depend on the seed's cell order.
  std::size_t best = cells.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].result.plan.found) continue;
    if (best == cells.size()) {
      best = i;
      continue;
    }
    const auto key = [&](std::size_t j) {
      return std::make_tuple(cells[j].result.plan.objective, -cells[j].k,
                             -cells[j].w, -static_cast<int>(cells[j].planner));
    };
    if (key(i) > key(best)) best = i;
  }
  return best;
}

template <typename T>
void Shuffle(std::vector<T>* items, SplitMix64* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

Window RunSweepRounds(Stack* stack, const Traffic& traffic,
                      std::vector<Round>* rounds, RunResult* result) {
  SplitMix64 rng(traffic.seed ^ 0x5eeeULL);
  const std::size_t offset = rng.Below(kTauCycle);
  service::ScenarioRunner runner(stack->service.get());
  Window window;
  window.slo_ms = kSweepSloMs;
  double sweep_seconds = 0.0;
  double previous_tau = kBaseTau;
  const PhaseClock clock;
  const double start = NowSeconds();
  double last_end = start;
  if (traffic.first_round + traffic.count > kTauCycle) {
    throw std::invalid_argument("sweep_commit: more rounds than fresh taus");
  }
  for (std::size_t r = 0; r < traffic.count; ++r) {
    Round round;
    const std::size_t slot = offset + traffic.first_round + r;
    round.tau = kBaseTau + kTauStep * static_cast<double>(1 + slot % kTauCycle);
    service::SweepSpec spec;
    spec.dataset = kDataset;
    spec.base = SweepOptions(round.tau);
    spec.ks = {10, 30};
    spec.ws = {0.3, 0.7};
    spec.planners = {core::Planner::kEtaPre, core::Planner::kVkTsp};
    Shuffle(&spec.ks, &rng);
    Shuffle(&spec.ws, &rng);
    Shuffle(&spec.planners, &rng);
    round.sweep_start = NowSeconds();
    if (r > 0) window.lateness_ms.push_back(Ms(round.sweep_start - last_end));
    try {
      round.cells = runner.Run(spec);
    } catch (const std::exception& e) {
      for (int c = 0; c < kSweepCells; ++c) {
        Tally(result, {false, false, std::string("sweep failed: ") + e.what()},
              0);
      }
      rounds->push_back(std::move(round));
      continue;
    }
    round.sweep_end = NowSeconds();
    sweep_seconds += round.sweep_end - round.sweep_start;
    round.version = round.cells.front().result.stats.snapshot_version;
    round.best = BestCell(round.cells);
    if (round.best == round.cells.size()) {
      rounds->push_back(std::move(round));
      continue;  // nothing to commit; the oracle still checks the cells
    }
    round.commit_start = NowSeconds();
    round.committed = stack->service->Commit(round.cells[round.best].result);
    round.commit_end = NowSeconds();
    round.warm_tau = previous_tau;
    auto future = stack->service->Submit(
        MakeRequest(SweepOptions(round.warm_tau), 30, 0.5,
                    core::Planner::kEtaPre, round.committed));
    round.submit_end = NowSeconds();
    try {
      round.warm = future.get();
      round.warm_answered = true;
    } catch (const std::exception& e) {
      round.warm_error = e.what();
    }
    round.warm_end = NowSeconds();
    previous_tau = round.tau;
    last_end = NowSeconds();
    rounds->push_back(std::move(round));
  }
  window.phase = clock.Stop("window", kSweepWorkers);
  // The runner returns the whole table at once, so the harness cannot see
  // when each cell was done; a cell's latency is its own service time
  // (queue + precompute + context + plan, see CheckSweep).
  for (const Round& round : *rounds) {
    for (std::size_t c = 0; c < round.cells.size(); ++c) {
      window.answers.emplace_back();
      Answer& answer = window.answers.back();
      answer.send_start = answer.due = round.sweep_start;
      answer.recv = round.sweep_end;
      answer.response = AsResponse(c, round.cells[c].result);
      answer.trace_id = round.cells[c].result.stats.trace_id;
    }
  }
  window.cells_per_s =
      sweep_seconds > 0.0 ? static_cast<double>(window.answers.size()) / sweep_seconds
                          : 0.0;
  return window;
}

// Post-window oracle of sweep_commit: every cell against a serial
// from-scratch precompute of its tau on its version (sweeps use fresh
// taus, so the service computed them from scratch too: bit-identity
// holds), and each round's warm answer, planned over a derived precompute,
// structurally against the universe of its tau on the committed version.
void CheckSweep(const service::PlanningService& served,
                const std::vector<Round>& rounds, Window* window,
                RunResult* result, std::vector<Phase>* phases) {
  const PhaseClock clock;
  std::vector<std::vector<std::string>> errors(rounds.size());
  std::vector<Verdict> warm(rounds.size());
  const int threads = ParallelReferences(rounds.size(), [&](std::size_t r) {
    const Round& round = rounds[r];
    if (round.committed != 0) {
      const auto committed = served.Snapshot(kDataset, round.committed);
      if (committed == nullptr) {
        warm[r] = {false, false, "committed version is gone"};
      } else {
        core::EdgeUniverseOptions universe_options;
        universe_options.tau = round.warm_tau;
        warm[r] = CheckDerived(
            round.warm_answered, round.warm_error,
            AsResponse(0, round.warm), round.committed, 30,
            core::EdgeUniverse::Build(*committed->road, *committed->transit,
                                      universe_options));
      }
      warm[r].why = "post-commit answer: " + warm[r].why;
    }
    if (round.cells.empty()) return;
    const auto snapshot = served.Snapshot(kDataset, round.version);
    if (snapshot == nullptr) {
      errors[r].assign(round.cells.size(), "planned-against version is gone");
      return;
    }
    core::CtBusOptions options = SweepOptions(round.tau);
    options.precompute_threads = 1;
    const core::Precompute precompute = core::PlanningContext::RunPrecompute(
        *snapshot->road, *snapshot->transit, options);
    for (const service::SweepCell& cell : round.cells) {
      core::CtBusOptions cell_options = options;
      cell_options.k = cell.k;
      cell_options.w = cell.w;
      const core::PlanResult reference = ReferencePlan(
          *snapshot->road, *snapshot->transit, cell_options, precompute,
          cell.planner);
      const bool same =
          PlanChecksum(reference, round.version) ==
          net::ResponseChecksum(AsResponse(0, cell.result));
      errors[r].push_back(same ? "" : "sweep cell differs from the serial reference");
    }
  });
  std::size_t a = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    if (round.committed != 0) {
      Tally(result, warm[r], net::ResponseChecksum(AsResponse(0, round.warm)));
      if (warm[r].ok) {
        window->commit_to_warm_ms.push_back(
            Ms(round.warm_end - round.commit_start));
        window->commit_ms.push_back(Ms(round.commit_end - round.commit_start));
        ++window->answered;
      }
    }
    for (std::size_t c = 0; c < round.cells.size(); ++c, ++a) {
      Answer& answer = window->answers[a];
      answer.ok = errors[r][c].empty();
      Tally(result, {answer.ok, !answer.ok, errors[r][c]},
            net::ResponseChecksum(answer.response));
      if (!answer.ok) continue;
      const double latency = Ms(answer.response.server_seconds);
      window->latency_ms.push_back(latency);
      if (latency <= window->slo_ms) ++window->within_slo;
      ++window->answered;
    }
  }
  phases->push_back(clock.Stop("oracle", threads));
}

// Commit to first OK answer on the new version, through the workload's own
// front door (interactive) or in-process (online_eta), after the timed
// window so the window never pays for a derive. Every sample restarts the
// service and commits the same route onto version 1, so the samples time
// one operation (commits stacked on one service would each derive across
// a longer delta); each restart is also a setup_s sample. Before each
// restart the spill directory goes back to the staged version-1 file:
// otherwise the previous sample's derived precompute, spilled at teardown,
// would answer this sample's miss from disk.
void RunCommitPhase(Kind kind, const Prepared& prepared, bool trace,
                    const Oracle& oracle, Stack* stack, Window* window,
                    std::vector<double>* setups, RunResult* result) {
  const core::Planner planner =
      kind == Kind::kOnline ? core::Planner::kEta : core::Planner::kEtaPre;
  for (int i = 0; i < kCommitSamples; ++i) {
    stack->Reset();
    for (const auto& entry : fs::directory_iterator(prepared.spill_dir)) {
      if (entry.path() != fs::path(prepared.spill_file)) fs::remove(entry.path());
    }
    setups->push_back(
        SetUp(kind, prepared, trace, oracle, stack, result, &result->phases));
    const service::ServiceResult planned = stack->service->Plan(
        MakeRequest(BaseOptions(), 30, 0.5, core::Planner::kEtaPre));
    const double start = NowSeconds();
    const std::uint64_t version = stack->service->Commit(planned);
    const double committed = NowSeconds();
    const core::CtBusOptions options = OptionsFor(kind);
    net::ResponseFrame response;
    std::string error;
    const bool answered =
        Ask(stack, MakeRequest(options, 30, 0.5, planner, version), 1000 + i,
            &response, &error);
    const double end = NowSeconds();
    const auto snapshot = stack->service->Snapshot(kDataset, version);
    if (snapshot == nullptr) throw std::runtime_error("committed version is gone");
    core::EdgeUniverseOptions universe_options;
    universe_options.tau = options.tau;
    Verdict verdict = CheckDerived(
        answered, error, response, version, 30,
        core::EdgeUniverse::Build(*snapshot->road, *snapshot->transit,
                                  universe_options));
    verdict.why = "post-commit answer: " + verdict.why;
    Tally(result, verdict, net::ResponseChecksum(response));
    if (!verdict.ok) continue;
    window->commit_to_warm_ms.push_back(Ms(end - start));
    window->commit_ms.push_back(Ms(committed - start));
  }
}

// ------------------------------------------------------------- metrics --

void AddEndToEnd(const Window& window, const std::vector<double>& setups,
                 RunResult* result) {
  for (double p : {50.0, 90.0, kTailPercentile}) {
    if (!PercentileSupported(window.latency_ms.size(), p)) {
      throw std::runtime_error(
          "only " + std::to_string(window.latency_ms.size()) +
          " OK answers: p" + std::to_string(static_cast<int>(p)) +
          " needs ten samples beyond it");
    }
  }
  if (window.commit_to_warm_ms.empty()) {
    throw std::runtime_error("no commit reached an OK answer");
  }
  AddMetric(result, "setup_s", Median(setups), "s");
  AddMetric(result, "latency_p50_ms", Percentile(window.latency_ms, 50), "ms");
  AddMetric(result, "latency_p90_ms", Percentile(window.latency_ms, 90), "ms");
  AddMetric(result, "latency_p95_ms", Percentile(window.latency_ms, 95), "ms");
  AddMetric(result, "within_slo_share",
            static_cast<double>(window.within_slo) /
                static_cast<double>(window.answers.size()),
            "fraction");
  AddMetric(result, "sweep_cells_per_s", window.cells_per_s, "1/s");
  AddMetric(result, "commit_to_warm_ms", Median(window.commit_to_warm_ms), "ms");
  AddMetric(result, "cpu_ms_per_answer",
            Ms(window.phase.cpu_seconds) /
                static_cast<double>(std::max<std::size_t>(1, window.answered)),
            "ms");
  AddMetric(result, "peak_rss_mb", PeakRssMb(), "MB");
  AddMetric(result, "ok_share",
            static_cast<double>(result->attempted - result->failed) /
                static_cast<double>(std::max<std::uint64_t>(1, result->attempted)),
            "fraction");
}

// ----------------------------------------------------------------- trace --

using ServiceSpans = std::map<std::uint64_t, std::vector<ctbus::obs::Span>>;

ServiceSpans GroupByTrace(const service::PlanningService& served) {
  ServiceSpans grouped;
  for (ctbus::obs::Span& span : served.trace_log().Snapshot()) {
    grouped[span.trace_id].push_back(std::move(span));
  }
  return grouped;
}

/// Re-parents one service trace's spans under `parent` on the bench
/// clock: net-request (when present) is the parent of the phase spans.
void AttachServiceSpans(const std::vector<ctbus::obs::Span>& spans,
                        double offset, std::uint64_t parent,
                        std::uint64_t trace_id, SpanLog* log,
                        bool include_commit) {
  std::uint64_t phase_parent = parent;
  for (const ctbus::obs::Span& span : spans) {
    if (span.name == "net-request") {
      phase_parent = log->Add(span.name, span.start_seconds + offset,
                              span.start_seconds + span.duration_seconds + offset,
                              parent, trace_id);
    }
  }
  for (const ctbus::obs::Span& span : spans) {
    if (span.name == "net-request") continue;
    if ((span.name == "commit") != include_commit) continue;
    log->Add(span.name, span.start_seconds + offset,
             span.start_seconds + span.duration_seconds + offset, phase_parent,
             trace_id);
  }
}

/// Joins front-door answers to their service trace: the response carries
/// its queue wait and the service's queue-wait span records the same
/// double, bit for bit. The front door leaves server_seconds at 0 on the
/// wire, so it is filled from the server's own net-request span.
void JoinFrontDoorAnswers(const ServiceSpans& service_spans,
                          std::vector<Answer>* answers) {
  std::map<double, std::uint64_t> by_queue_wait;
  for (const auto& [trace, spans] : service_spans) {
    for (const auto& span : spans) {
      if (span.name == "queue-wait") by_queue_wait[span.duration_seconds] = trace;
    }
  }
  for (Answer& answer : *answers) {
    const auto joined = by_queue_wait.find(answer.response.queue_seconds);
    if (answer.trace_id != 0 || joined == by_queue_wait.end()) continue;
    answer.trace_id = joined->second;
    for (const auto& span : service_spans.at(answer.trace_id)) {
      if (span.name == "net-request") {
        answer.response.server_seconds = span.duration_seconds;
      }
    }
  }
}

/// Builds the request trees of a traced window: bench spans around the
/// client / Submit calls, with the service's own spans joined underneath.
void RecordWindowSpans(Kind kind, const Window& window,
                       const std::vector<Round>& rounds,
                       const ServiceSpans& service_spans, double offset,
                       SpanLog* log) {
  auto service_trace = [&](const Answer& answer) -> const std::vector<ctbus::obs::Span>* {
    const auto it = service_spans.find(answer.trace_id);
    return answer.trace_id == 0 || it == service_spans.end() ? nullptr : &it->second;
  };
  std::uint64_t next_trace = 1;
  if (kind != Kind::kSweep) {
    for (const Answer& answer : window.answers) {
      if (answer.recv <= 0.0) continue;
      const std::uint64_t trace = next_trace++;
      const std::uint64_t root =
          log->Add("request", answer.due, answer.recv, 0, trace);
      if (answer.send_start > answer.due) {
        log->Add("loadgen.late", answer.due, answer.send_start, root, trace);
      }
      const bool front_door = kind == Kind::kInteractive;
      log->Add(front_door ? "client.send" : "submit", answer.send_start,
               answer.send_end, root, trace);
      const std::uint64_t wait =
          log->Add(front_door ? "client.wait" : "future.wait", answer.send_end,
                   answer.recv, root, trace);
      if (const auto* spans = service_trace(answer)) {
        AttachServiceSpans(*spans, offset, wait, trace, log, false);
      }
    }
    return;
  }
  for (const Round& round : rounds) {
    if (round.cells.empty()) continue;
    const std::uint64_t trace = next_trace++;
    const double end = round.warm_end > 0.0 ? round.warm_end : round.sweep_end;
    const std::uint64_t root = log->Add("round", round.sweep_start, end, 0, trace);
    const std::uint64_t sweep =
        log->Add("sweep", round.sweep_start, round.sweep_end, root, trace);
    for (const service::SweepCell& cell : round.cells) {
      const auto it = service_spans.find(cell.result.stats.trace_id);
      if (it != service_spans.end()) {
        AttachServiceSpans(it->second, offset, sweep, trace, log, false);
      }
    }
    if (round.best == round.cells.size()) continue;
    const std::uint64_t commit =
        log->Add("Commit", round.commit_start, round.commit_end, root, trace);
    const auto committed =
        service_spans.find(round.cells[round.best].result.stats.trace_id);
    if (committed != service_spans.end()) {
      AttachServiceSpans(committed->second, offset, commit, trace, log, true);
    }
    log->Add("submit", round.commit_end, round.submit_end, root, trace);
    const std::uint64_t wait =
        log->Add("future.wait", round.submit_end, round.warm_end, root, trace);
    const auto warm = service_spans.find(round.warm.stats.trace_id);
    if (warm != service_spans.end()) {
      AttachServiceSpans(warm->second, offset, wait, trace, log, false);
    }
  }
}

/// Layer split of the request trees: self time per layer over the total
/// self time, and the share of each root its measured spans explain.
void AddSplitMetrics(const SpanLog& log, RunResult* result) {
  const std::vector<SpanRecord> spans = log.Spans();
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_layer;
  const std::map<std::string, std::string> layer_of = {
      {"client.send", "net"},       {"client.wait", "net"},
      {"net-request", "net"},       {"queue-wait", "queue_wait"},
      {"batch-assembly", "queue_wait"},
      {"precompute-resolve", "precompute_resolve"},
      {"context-build", "context_build"},
      {"plan-search", "plan_search"},
      {"commit", "commit"},         {"Commit", "commit"}};
  // Waiting spans of the harness: their self time is what no measured
  // span explains.
  const std::map<std::string, bool> unexplained = {
      {"request", true}, {"round", true}, {"sweep", true},
      {"future.wait", true}, {"client.wait", true}};
  double total = 0.0;
  std::map<std::uint64_t, double> root_unexplained;
  std::map<std::uint64_t, double> root_duration;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) root_duration[spans[i].trace_id] = spans[i].duration();
    if (spans[i].trace_id == 0) continue;  // probe spans
    total += self[i];
    const auto layer = layer_of.find(spans[i].name);
    by_layer[layer == layer_of.end() ? "other" : layer->second] += self[i];
    if (unexplained.count(spans[i].name) != 0) {
      root_unexplained[spans[i].trace_id] += self[i];
    }
  }
  for (const char* layer : {"net", "queue_wait", "precompute_resolve",
                            "context_build", "plan_search", "commit"}) {
    AddMetric(result, std::string("split.") + layer + "_pct",
              total > 0.0 ? 100.0 * by_layer[layer] / total : 0.0, "%");
  }
  std::vector<double> coverage;
  for (const auto& [trace, duration] : root_duration) {
    if (trace == 0 || duration <= 0.0) continue;
    coverage.push_back(100.0 * (1.0 - root_unexplained[trace] / duration));
  }
  AddMetric(result, "trace.span_coverage_pct",
            coverage.empty() ? 0.0 : Median(coverage), "%");
}

// ---------------------------------------------------------------- probes --

/// Median wall seconds of `reps` calls of `fn`, each under a span.
template <typename Fn>
double TimeMedian(SpanLog* log, const char* name, int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(log, name);
    fn();
    samples.push_back(span.Seconds());
  }
  return Median(samples);
}

/// In-process calls into each layer on the workload's base snapshot and
/// request parameters.
void RunProbes(Kind kind, const Prepared& prepared, SpanLog* log,
               RunResult* result, std::vector<Phase>* phases) {
  std::string error;
  const auto& road = prepared.snapshot.road;
  const auto& transit = prepared.snapshot.transit;
  // ETA-Pre / vk-TSP parameters, at the workload's precompute_threads.
  core::CtBusOptions options = BaseOptions();
  options.precompute_threads = OptionsFor(kind).precompute_threads;

  // io
  AddMetric(result, "io.snapshot_load_ms",
            Ms(TimeMedian(log, "LoadSnapshot", 5, [&] {
              if (!io::LoadSnapshot(prepared.snapshot_path, &error)) {
                throw std::runtime_error(error);
              }
            })),
            "ms");
  AddMetric(result, "io.spill_load_ms",
            Ms(TimeMedian(log, "LoadPrecomputeCacheEntry", 5, [&] {
              if (!io::LoadPrecomputeCacheEntry(prepared.spill_file, &error)) {
                throw std::runtime_error(error);
              }
            })),
            "ms");
  AddMetric(result, "io.snapshot_bytes",
            static_cast<double>(fs::file_size(prepared.snapshot_path)), "bytes");

  // linalg, on the base adjacency through the MatVec interface.
  linalg::SymmetricSparseMatrix adjacency = transit.AdjacencyMatrix();
  const linalg::MatVec& matvec = adjacency;
  const int dim = matvec.dim();
  std::vector<double> x(dim, 1.0);
  std::vector<double> y(dim, 0.0);
  constexpr int kMatvecReps = 2000;
  AddMetric(result, "linalg.matvec_us",
            1e6 * TimeMedian(log, "MatVec::Apply", 5, [&] {
              for (int r = 0; r < kMatvecReps; ++r) matvec.Apply(x, &y);
            }) / kMatvecReps,
            "us");
  // Computed, not measured: each Apply reads every stored entry (both
  // triangles, one int column + one double value each) and x, writes y.
  AddMetric(result, "linalg.matvec_bytes",
            static_cast<double>(2 * adjacency.num_entries() *
                                    static_cast<std::int64_t>(sizeof(int) + sizeof(double)) +
                                2 * static_cast<std::int64_t>(dim) * 8),
            "bytes");
  const ctbus::connectivity::ConnectivityEstimator online_estimator(
      dim, options.online_estimator);
  const ctbus::connectivity::ConnectivityEstimator precompute_estimator(
      dim, options.precompute_estimator);
  AddMetric(result, "linalg.estimate_online_ms",
            Ms(TimeMedian(log, "ConnectivityEstimator::Estimate", 5,
                          [&] { online_estimator.Estimate(matvec); })),
            "ms");
  constexpr int kEstimateReps = 20;
  AddMetric(result, "linalg.estimate_precompute_us",
            1e6 * TimeMedian(log, "ConnectivityEstimator::Estimate", 5, [&] {
              for (int r = 0; r < kEstimateReps; ++r) precompute_estimator.Estimate(matvec);
            }) / kEstimateReps,
            "us");
  const int needed = 2 * options.k;
  AddMetric(result, "linalg.top_eigenvalues_ms",
            Ms(TimeMedian(log, "TopEigenvalues", 5, [&] {
              linalg::Rng rng(options.online_estimator.seed ^ 0x9e3779b9ULL);
              linalg::TopEigenvalues(matvec, std::min(needed, dim),
                                     std::min(dim, needed + 30), &rng);
            })),
            "ms");

  // core: precompute from scratch at the workload's thread count.
  {
    const PhaseClock clock;
    core::Precompute fresh;
    const double seconds = TimeMedian(log, "RunPrecompute", 1, [&] {
      fresh = core::PlanningContext::RunPrecompute(road, transit, options);
    });
    const Phase phase = clock.Stop("probe.precompute", options.precompute_threads);
    phases->push_back(phase);
    AddMetric(result, "core.precompute_s", seconds, "s");
    AddMetric(result, "core.universe_s", fresh.stats.universe_seconds, "s");
    AddMetric(result, "connectivity.increments_s", fresh.stats.increments_seconds, "s");
    AddMetric(result, "core.precompute_parallelism", phase.parallelism(), "x");
  }
  const core::PlanningContext context =
      core::PlanningContext::BuildWithPrecompute(road, transit, options,
                                                 prepared.reference);
  AddMetric(result, "core.context_build_ms",
            Ms(TimeMedian(log, "BuildWithPrecompute", 5, [&] {
              core::PlanningContext::BuildWithPrecompute(road, transit, options,
                                                         prepared.reference);
            })),
            "ms");
  core::PlanResult eta_pre;
  std::vector<double> search;
  for (int r = 0; r < 3; ++r) {
    ScopedSpan span(log, "RunEta");
    eta_pre = core::RunEta(&context, core::SearchMode::kPrecomputed);
    search.push_back(eta_pre.seconds);
  }
  AddMetric(result, "core.eta_pre_search_ms", Ms(Median(search)), "ms");
  AddMetric(result, "core.eta_pre_iterations", eta_pre.iterations, "count");
  search.clear();
  for (int r = 0; r < 3; ++r) {
    ScopedSpan span(log, "RunVkTsp");
    search.push_back(core::RunVkTsp(&context).seconds);
  }
  AddMetric(result, "core.vk_tsp_search_ms", Ms(Median(search)), "ms");
  {
    core::CtBusOptions online = OnlineOptions();
    online.eta_threads = kind == Kind::kOnline ? kOnlineEtaThreads : 1;
    const core::PlanningContext online_context =
        core::PlanningContext::BuildWithPrecompute(road, transit, online,
                                                   prepared.reference);
    const PhaseClock clock;
    core::PlanResult plan;
    {
      ScopedSpan span(log, "RunEta");
      plan = core::RunEta(&online_context, core::SearchMode::kOnline);
    }
    const Phase phase = clock.Stop("probe.eta_online", online.eta_threads);
    phases->push_back(phase);
    AddMetric(result, "core.eta_online_ms_per_iteration",
              Ms(plan.seconds) / std::max(1, plan.iterations), "ms");
    AddMetric(result, "core.eta_online_parallelism", phase.parallelism(), "x");
  }

  // connectivity
  AddMetric(result, "connectivity.online_increment_ms",
            Ms(TimeMedian(log, "OnlineConnectivityIncrement", 5, [&] {
              context.OnlineConnectivityIncrement(eta_pre.path.edges());
            })),
            "ms");
  {
    const double base_lambda = precompute_estimator.Estimate(matvec);
    std::vector<double> samples;
    const auto& universe = prepared.reference.universe;
    for (int e = 0, taken = 0; e < universe.num_edges() && taken < 40; ++e) {
      if (!universe.edge(e).is_new) continue;
      ++taken;
      ScopedSpan span(log, "EdgeIncrement");
      ctbus::connectivity::EdgeIncrement(&adjacency, base_lambda,
                                         precompute_estimator,
                                         universe.edge(e).u, universe.edge(e).v);
      samples.push_back(span.Seconds());
    }
    AddMetric(result, "connectivity.edge_increment_us", 1e6 * Median(samples), "us");
  }
  {
    // Warm start across one commit of the ETA-Pre route.
    service::SnapshotStore store(road, transit);
    const std::uint64_t version =
        store.CommitRoute(eta_pre, prepared.reference.universe);
    const auto next = store.Get(version);
    const auto delta = store.DeltaBetween(1, version);
    core::Precompute derived;
    const double seconds = TimeMedian(log, "DerivePrecompute", 1, [&] {
      derived = core::PlanningContext::DerivePrecompute(
          *next->road, *next->transit, options, prepared.reference, *delta);
    });
    AddMetric(result, "core.derive_ms", Ms(seconds), "ms");
    const double touched = derived.stats.num_increments_recomputed +
                           derived.stats.num_increments_carried;
    AddMetric(result, "connectivity.increments_recomputed_share",
              touched > 0.0 ? derived.stats.num_increments_recomputed / touched : 0.0,
              "fraction");
  }

  // net codec on this workload's answer.
  {
    service::ServiceResult served;
    served.plan = eta_pre;
    served.stats.snapshot_version = 1;
    const net::ResponseFrame response = net::MakeOkResponse(1, served);
    constexpr int kCodecReps = 200;
    std::vector<std::uint8_t> bytes;
    AddMetric(result, "net.frame_encode_us",
              1e6 * TimeMedian(log, "EncodeResponseFrame", 5, [&] {
                for (int r = 0; r < kCodecReps; ++r) bytes = net::EncodeResponseFrame(response);
              }) / kCodecReps,
              "us");
    AddMetric(result, "net.frame_decode_us",
              1e6 * TimeMedian(log, "DecodeResponsePayload", 5, [&] {
                for (int r = 0; r < kCodecReps; ++r) {
                  net::FrameHeader header;
                  net::ResponseFrame decoded;
                  if (!net::DecodeFrameHeader(bytes.data(), bytes.size(), &header, &error) ||
                      !net::DecodeResponsePayload(bytes.data() + net::kHeaderBytes,
                                                  header.payload_bytes, &decoded, &error)) {
                    throw std::runtime_error(error);
                  }
                }
              }) / kCodecReps,
              "us");
  }
}

/// Front-door overhead for workloads whose traffic has no front door: a
/// short burst of the base ETA-Pre request on version 1 through an
/// in-process server on the workload's own service.
std::vector<double> NetProbe(Stack* stack) {
  net::Server server(stack->service.get(), net::ServerOptions{});
  server.Start();
  net::Client client;
  std::string error;
  if (!client.Connect(server.port(), &error)) throw std::runtime_error(error);
  std::vector<Answer> answers(25);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    net::RequestFrame frame;
    frame.request_id = i + 1;
    frame.request = MakeRequest(OptionsFor(Kind::kInteractive), 30, 0.5,
                                core::Planner::kEtaPre, 1);
    answers[i].send_start = NowSeconds();
    if (!client.Call(frame, &answers[i].response, &error)) {
      throw std::runtime_error(error);
    }
    answers[i].recv = NowSeconds();
  }
  client.Close();
  server.Stop();
  JoinFrontDoorAnswers(GroupByTrace(*stack->service), &answers);
  std::vector<double> overhead_ms;
  for (const Answer& answer : answers) {
    if (answer.trace_id == 0) continue;
    overhead_ms.push_back(
        Ms(answer.recv - answer.send_start - answer.response.server_seconds));
  }
  return overhead_ms;
}

void AddServiceMetrics(Kind kind, const Window& window, Stack* stack,
                       const service::PlanningService::ServiceStats& before,
                       RunResult* result) {
  std::vector<double> queue_ms, compute_ms, overhead_ms;
  double hits = 0.0, batch_sum = 0.0, batched = 0.0, n = 0.0;
  for (const Answer& answer : window.answers) {
    if (!answer.ok || answer.trace_id == 0) continue;
    const auto& response = answer.response;
    queue_ms.push_back(Ms(response.queue_seconds));
    compute_ms.push_back(Ms(response.server_seconds - response.queue_seconds));
    overhead_ms.push_back(Ms(answer.recv - answer.send_start - response.server_seconds));
    hits += response.cache_hit ? 1.0 : 0.0;
    batch_sum += response.batch_size;
    batched += response.batch_size > 1 ? 1.0 : 0.0;
    n += 1.0;
  }
  if (queue_ms.empty()) throw std::runtime_error("traced window answered nothing");
  AddMetric(result, "service.queue_ms_p50", Percentile(queue_ms, 50), "ms");
  AddMetric(result, "service.queue_ms_p95", Percentile(queue_ms, 95), "ms");
  AddMetric(result, "service.compute_ms_p50", Percentile(compute_ms, 50), "ms");
  AddMetric(result, "service.cache_hit_ratio", hits / n, "fraction");
  AddMetric(result, "service.batch_size_mean", batch_sum / n, "count");
  AddMetric(result, "service.batched_share", batched / n, "fraction");
  const auto after = stack->service->service_stats();
  const double scratch =
      static_cast<double>(after.precomputes_from_scratch - before.precomputes_from_scratch);
  const double derived =
      static_cast<double>(after.precomputes_derived - before.precomputes_derived);
  AddMetric(result, "service.derived_share",
            scratch + derived > 0.0 ? derived / (scratch + derived) : 0.0, "fraction");
  if (kind != Kind::kInteractive) overhead_ms = NetProbe(stack);
  AddMetric(result, "net.overhead_ms_p50", Percentile(overhead_ms, 50), "ms");
  AddMetric(result, "loadgen.lateness_ms_p95", Percentile(window.lateness_ms, 95), "ms");
}

Window RunTraffic(Kind kind, Stack* stack, const Oracle& oracle,
                  const Traffic& traffic, std::vector<Round>* rounds,
                  RunResult* result) {
  switch (kind) {
    case Kind::kInteractive:
      return RunOpenLoop(stack, oracle, traffic, result);
    case Kind::kOnline:
      return RunClosedLoop(stack, oracle, traffic, result);
    case Kind::kSweep:
      return RunSweepRounds(stack, traffic, rounds, result);
  }
  throw std::logic_error("unreachable");
}

std::vector<std::tuple<int, double, core::Planner>> OracleCells(Kind kind) {
  std::vector<std::tuple<int, double, core::Planner>> cells;
  if (kind == Kind::kSweep) {
    cells.emplace_back(30, 0.5, core::Planner::kEtaPre);
    return cells;
  }
  for (int k : kGridK) {
    for (double w : kGridW) {
      if (kind == Kind::kOnline) {
        cells.emplace_back(k, w, core::Planner::kEta);
      } else {
        cells.emplace_back(k, w, core::Planner::kEtaPre);
        cells.emplace_back(k, w, core::Planner::kVkTsp);
      }
    }
  }
  return cells;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"interactive", "online_eta",
                                                 "sweep_commit"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

RunResult RunWorkload(const RunConfig& config) {
  const Kind kind = KindOf(config.workload);
  RunResult result;
  SpanLog spans;
  SpanLog* log = config.trace ? &spans : nullptr;

  PhaseClock clock;
  const Prepared prepared = Prepare(config, &result);
  result.phases.push_back(clock.Stop("prepare", 1));

  clock = PhaseClock();
  Oracle oracle(prepared.snapshot.road, prepared.snapshot.transit,
                prepared.reference, 1);
  const int threads = oracle.Prepare(OptionsFor(kind), OracleCells(kind));
  result.phases.push_back(clock.Stop("oracle", threads));

  Stack stack;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    setups.push_back(SetUp(kind, prepared, config.trace, oracle, &stack,
                           &result, &result.phases));
  }

  Traffic traffic = SizeTraffic(kind, config.seed, config.seconds,
                                MinSamplesFor(kTailPercentile));
  std::vector<Round> rounds;
  if (!config.trace) {
    Window window = RunTraffic(kind, &stack, oracle, traffic, &rounds, &result);
    result.phases.push_back(window.phase);
    if (kind == Kind::kSweep) {
      CheckSweep(*stack.service, rounds, &window, &result, &result.phases);
    } else {
      RunCommitPhase(kind, prepared, config.trace, oracle, &stack, &window,
                     &setups, &result);
    }
    AddEndToEnd(window, setups, &result);
  } else {
    // Untraced half-length window first: obs.trace_overhead_pct compares
    // its median latency with the traced window's.
    const Traffic untraced_traffic =
        SizeTraffic(kind, config.seed, config.seconds / 2, MinSamplesFor(50));
    std::vector<Round> untraced_rounds;
    Window untraced = RunTraffic(kind, &stack, oracle, untraced_traffic,
                                 &untraced_rounds, &result);
    if (kind == Kind::kSweep) {
      CheckSweep(*stack.service, untraced_rounds, &untraced, &result, &result.phases);
    }
    traffic = SizeTraffic(kind, config.seed, config.seconds, MinSamplesFor(50));
    traffic.first_round = untraced_rounds.size();
    const auto before = stack.service->service_stats();
    stack.service->trace_log().set_enabled(true);
    Window window = RunTraffic(kind, &stack, oracle, traffic, &rounds, &result);
    result.phases.push_back(window.phase);
    if (kind == Kind::kSweep) {
      CheckSweep(*stack.service, rounds, &window, &result, &result.phases);
    }
    const ServiceSpans service_spans = GroupByTrace(*stack.service);
    JoinFrontDoorAnswers(service_spans, &window.answers);
    RecordWindowSpans(kind, window, rounds, service_spans, stack.trace_offset,
                      &spans);
    AddServiceMetrics(kind, window, &stack, before, &result);
    stack.service->trace_log().set_enabled(false);
    if (kind != Kind::kSweep) {
      RunCommitPhase(kind, prepared, config.trace, oracle, &stack, &window,
                     &setups, &result);
    }
    AddMetric(&result, "service.commit_ms", Median(window.commit_ms), "ms");
    const double untraced_p50 = Percentile(untraced.latency_ms, 50);
    AddMetric(&result, "obs.trace_overhead_pct",
              100.0 * (Percentile(window.latency_ms, 50) - untraced_p50) / untraced_p50,
              "%");
    AddSplitMetrics(spans, &result);
    RunProbes(kind, prepared, log, &result, &result.phases);
    if (!config.spans_out.empty()) {
      fs::create_directories(fs::path(config.spans_out).parent_path());
      std::ofstream out(config.spans_out);
      spans.WriteJsonLines(out);
    }
  }
  stack.Reset();
  return result;
}

}  // namespace perfbench
