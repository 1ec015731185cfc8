// Online task-flow serving engine over the simulated platform.
//
// Turns the Figure 5 bench into a reusable subsystem: a Server owns a set of
// deployed models on one platform shard and serves a RequestStream under a
// pluggable policy — PowerLens preset plans (memoized in a PlanCache), the
// reactive baselines (ondemand/BiM, FPG-G, FPG-C+G), or MAXN.
//
// Execution model, chosen so aggregate results are a pure function of the
// stream (invariant to the host worker count — test-enforced at 1/4/8
// workers under Release and TSan):
//
//  - Plan policies (PowerLens, MAXN): requests are independent simulator
//    runs (the preset schedule resets at each request boundary, exactly the
//    Figure 5 protocol), so worker threads claim ascending request indices
//    from one atomic counter and write results into per-index slots. Without
//    fault injection or an enabled default trace, a run is a pure function
//    of (model, plan, passes), so one memo table shared by the workers of a
//    simulate_parallel call simulates each distinct run once, on whichever
//    worker claims it first, and every other request reuses its result,
//    still counting it in the powerlens_sim_* metrics (DESIGN §5m).
//  - Reactive policies: governor state must persist across request
//    boundaries (a real cpufreq/podgov instance never resets between
//    requests), so the whole stream executes as ONE continuous
//    SimEngine::run_workload on the calling thread, and per-request
//    accounting is recovered from the engine's work-item marks. This is
//    byte-identical to the seed Figure 5 bench.
//
// Either way, a deterministic single-threaded fold over the tasks in
// arrival order builds the serving timeline (for plan policies, on the
// calling thread while the workers simulate later requests): admission
// control (bounded in-system task count on the *simulated* clock),
// start/finish times on the single device, per-request latency and
// deadline accounting, metrics, per-request trace spans on a virtual
// track, and every journal record. Workers only simulate. A memoized run's
// journal fragments (its attempt body and the request fields that depend
// only on the run) are rendered once per memo entry, so a warm request
// formats only its own timeline fields.
//
// Fault injection and graceful degradation: ServerConfig::faults turns on
// the deterministic hardware fault model (src/fault). Plan policies derive
// one fault stream per (task, attempt) from the spec seed — worker-count
// invariance survives injection — and recover per request: a run whose DVFS
// actuation failed beyond tolerance is retried after capped exponential
// backoff on the simulated clock, and after max_retries the request falls
// back to the pinned MAXN-like configuration, which issues no transitions
// and therefore cannot be hit by actuation faults. Reactive policies run one
// continuous fault stream with no recovery (there is no request boundary to
// retry at).
//
// Simplifications that are deliberate and documented: the device consumes
// no energy while idle between arrivals or during retry backoff, and
// admission control / deadline shedding require a plan policy (rejecting or
// shedding a request mid-stream would fork a reactive governor's history —
// serve() throws rather than silently approximating).
#pragma once

#include "core/powerlens.hpp"
#include "dnn/graph.hpp"
#include "fault/fault_spec.hpp"
#include "hw/analytic.hpp"
#include "hw/fault_hooks.hpp"
#include "hw/platform.hpp"
#include "hw/sim_engine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request_stream.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace powerlens::obs {
class Journal;
class Residuals;
class TraceWriter;
}  // namespace powerlens::obs

namespace powerlens::serve {

class AdaptController;

enum class ServePolicy {
  kPowerLens,  // per-request preset plan + ondemand CPU governor
  kMaxn,       // both ladders pinned at maximum (no governor, no schedule)
  kBiM,        // reactive ondemand on CPU + GPU
  kFpgG,       // FPG hill-climb on GPU, ondemand CPU
  kFpgCG,      // FPG hill-climb on CPU + GPU
};

const char* policy_name(ServePolicy policy) noexcept;

// Returns true for policies whose requests are independent simulator runs.
bool is_plan_policy(ServePolicy policy) noexcept;

struct DeployedModel {
  std::string name;
  dnn::Graph graph;
};

// How the server degrades when injected hardware faults hit a request.
struct DegradePolicy {
  // Master switch for the retry/fallback machinery. Off, a degraded run is
  // returned as-is (useful for measuring the undegraded fault impact).
  bool fallback_enabled = true;
  // Re-executions granted before the request falls back to the pinned
  // (MAXN-like) safe configuration, which issues no DVFS transitions and is
  // therefore immune to actuation faults.
  std::size_t max_retries = 2;
  // DVFS actuation failures tolerated per run before it counts as degraded.
  std::size_t dvfs_fault_tolerance = 0;
  // Exponential backoff inserted on the simulated clock before each retry:
  // min(base * 2^attempt, cap). It extends the request's device occupancy
  // but consumes no energy (the device idles; a documented simplification).
  double backoff_base_s = 0.05;
  double backoff_cap_s = 0.4;
  // Shed requests whose deadline is already unmeetable at their would-be
  // service start instead of running them to a guaranteed miss. Plan
  // policies only (dropping a request mid-stream would fork a reactive
  // governor's history — serve() throws).
  bool shed_doomed = false;
};

struct ServerConfig {
  ServePolicy policy = ServePolicy::kPowerLens;
  // Host worker threads simulating independent requests (plan policies
  // only; reactive streams are inherently sequential). Results are
  // invariant to this value.
  std::size_t num_workers = 1;
  // Admission control: maximum tasks in system (waiting + in service) on
  // the simulated clock; arrivals beyond it are rejected. 0 = unbounded.
  // Plan policies only — see the header comment.
  std::size_t admission_capacity = 0;
  // Memoize optimization plans across requests. Off recomputes per request
  // (the cost the cache exists to remove); results are identical either way.
  bool use_plan_cache = true;
  // Maximum resident plans before LRU eviction (0 = unbounded). Without
  // adaptation an evicted plan recomputes to the same plan, so results stay
  // identical, but hit/miss counters become access-order dependent under
  // concurrency (see plan_cache.hpp). Adaptation requires an unbounded
  // cache: an evicted re-plan would come back as a cold plan, so served
  // energy would depend on the worker count.
  std::size_t plan_cache_capacity = 0;
  // Hardware fault injection applied to every simulated request. Plan
  // policies derive one fault stream per (task, attempt) from the spec
  // seed, so results stay invariant to the worker count; reactive policies
  // run one continuous stream. All-zero rates (default) = no injection.
  fault::FaultSpec faults;
  // Recovery behavior when injected faults degrade a request.
  DegradePolicy degrade;
  // Trace sink; null means obs::default_trace().
  obs::TraceWriter* trace = nullptr;
  // Structured per-request event journal; null means obs::default_journal().
  // Always on by default — records are bounded, deterministic, and cheap:
  // one string per event, appended by the fold on the serve() calling
  // thread under one journal lock, with a memoized run's attempt body and
  // run-only request fields rendered once per call and shared by every
  // request it serves. journal_enabled = false is the overhead-measurement
  // escape hatch.
  obs::Journal* journal = nullptr;
  bool journal_enabled = true;
  // Predicted-vs-observed accounting sink; null means
  // obs::default_residuals(). Scored in the deterministic fold, so the
  // sink's snapshot is byte-identical at any worker count.
  obs::Residuals* residuals = nullptr;
  bool residuals_enabled = true;
  // Closed-loop plan adaptation (serve/adapt.hpp): chunk the stream into
  // epochs of `adapt_epoch_tasks` requests and, at every boundary, re-plan
  // drifting models from the committed residual snapshot — cost-table
  // rescaling by the observed/predicted EWMA ratio, thermal frequency caps,
  // plan-cache install. Requires the kPowerLens policy, a non-null
  // framework, residuals_enabled (the drift signal source) and an unbounded
  // plan cache; the Server constructor throws std::invalid_argument
  // otherwise. Results stay invariant to the worker count and kernel
  // dispatch path: boundary decisions derive only from the deterministic
  // fold's residual commits and per-request aggregates.
  bool adapt_enabled = false;
  std::size_t adapt_epoch_tasks = 32;
  // Background decision-model retraining on rows harvested from re-plans;
  // refitted bundles swap in atomically at epoch boundaries.
  bool adapt_retrain = false;
  std::size_t adapt_retrain_min_rows = 24;
};

// One simulator execution attempt of a request, as recorded host-side —
// the span-level view of the retry/backoff/fallback machinery.
struct AttemptRecord {
  double time_s = 0.0;    // simulated execution time of this attempt
  double energy_j = 0.0;
  double mean_power_w = 0.0;  // telemetry-rail sample mean
  double peak_power_w = 0.0;  // telemetry-rail sample max
  double dvfs_stall_s = 0.0;
  double throttled_s = 0.0;
  std::size_t dvfs_transitions = 0;
  hw::FaultCounters faults;  // injected during this attempt only
  bool degraded = false;     // beyond tolerance -> retried or fell back
  bool pinned = false;       // ran on the pinned fallback configuration
  double backoff_s = 0.0;    // inserted after this attempt, before the next
};

// Per-request serving outcome, in task-id order.
struct RequestOutcome {
  std::size_t task_id = 0;
  std::size_t model_index = 0;
  bool admitted = false;
  // Dropped at dispatch because its deadline was already unmeetable
  // (DegradePolicy::shed_doomed); never started, no energy billed.
  bool shed = false;
  double arrival_s = 0.0;
  double start_s = 0.0;    // service start on the device timeline
  double finish_s = 0.0;
  double service_s = 0.0;  // simulated execution time (attempts + backoff)
  double wait_s = 0.0;     // start - arrival
  double energy_j = 0.0;
  std::int64_t images = 0;
  std::size_t dvfs_transitions = 0;
  double deadline_s = 0.0;  // relative; 0 = none
  bool deadline_missed = false;
  // Fault recovery (zero without injection): re-executions after degraded
  // runs, backoff inserted before them, whether the request ended pinned,
  // and the faults injected across all of its attempts.
  std::size_t retries = 0;
  double backoff_s = 0.0;
  bool fell_back = false;
  hw::FaultCounters faults;
  // Span-level attempt log (plan policies; empty for reactive streams and
  // requests never started).
  std::vector<AttemptRecord> attempts;
  // Plan provenance (plan policies): signature of the served graph and
  // whether this request was the first in task order to need its plan —
  // the deterministic stand-in for the scheduling-dependent cache miss.
  std::uint64_t plan_signature = 0;
  bool plan_cold = false;
  // Predicted-vs-observed accounting (NaN = not scored: rejected/shed
  // requests, reactive policies, untrained plans). Observed values cover
  // the accepted attempt only — retries and backoff are availability
  // costs, not model error.
  double predicted_time_s = std::numeric_limits<double>::quiet_NaN();
  double predicted_energy_j = std::numeric_limits<double>::quiet_NaN();
  double observed_time_s = std::numeric_limits<double>::quiet_NaN();
  double observed_energy_j = std::numeric_limits<double>::quiet_NaN();
  double latency_residual = std::numeric_limits<double>::quiet_NaN();
  double energy_residual = std::numeric_limits<double>::quiet_NaN();

  double latency_s() const noexcept { return finish_s - arrival_s; }
};

struct ServeReport {
  std::string platform;
  std::string policy;
  std::size_t total_tasks = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;  // deadline-doomed, dropped before service start
  std::size_t deadline_misses = 0;
  double energy_j = 0.0;       // admitted requests only
  double busy_s = 0.0;         // sum of service times
  double makespan_s = 0.0;     // last finish on the device timeline
  std::int64_t images = 0;
  std::size_t dvfs_transitions = 0;
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  std::size_t peak_queue_depth = 0;  // in-system high-water (simulated)
  std::uint64_t plan_cache_hits = 0;    // this serve() call only
  std::uint64_t plan_cache_misses = 0;
  // Plans installed by snapshot warm start before this serve() (cache
  // lifetime total). With every deployed model covered, plan_cache_misses
  // stays 0 — the warm-start proof the snapshot tests assert. Deliberately
  // NOT part of write_json: the serving outcome of a snapshot-started
  // server is byte-identical to a warm-cache run, including its JSON
  // report.
  std::uint64_t plan_cache_preloaded = 0;
  // Fault-recovery totals over admitted requests (reactive: whole stream).
  std::size_t retries = 0;
  std::size_t fallbacks = 0;  // requests that ended on the pinned fallback
  double backoff_s = 0.0;
  hw::FaultCounters faults;
  // SLO accounting: images delivered by admitted requests that met their
  // deadline (every admitted image when a request carries none), and the
  // deadline-miss burn rate — misses over deadline-bearing admitted
  // requests (NaN when the stream carries no deadlines).
  std::int64_t goodput_images = 0;
  double deadline_burn_rate = std::numeric_limits<double>::quiet_NaN();
  // Predicted-vs-observed summary over the `residual_scored` requests that
  // carried a prediction (NaN when none did). Signed relative error,
  // (observed - predicted) / predicted.
  std::size_t residual_scored = 0;
  double latency_residual_mean = std::numeric_limits<double>::quiet_NaN();
  double energy_residual_mean = std::numeric_limits<double>::quiet_NaN();
  std::vector<RequestOutcome> outcomes;  // task-id order

  // The paper's metric (eq. 1) over the admitted workload.
  double energy_efficiency() const noexcept {
    return energy_j > 0.0 ? static_cast<double>(images) / energy_j : 0.0;
  }
  // One JSON object (python3 -m json.tool clean), summary fields only.
  void write_json(std::ostream& os) const;
};

class Server {
 public:
  // `framework` may be null for reactive/MAXN policies; kPowerLens throws
  // std::logic_error at serve() time without a trained framework.
  Server(const hw::Platform& platform, std::vector<DeployedModel> models,
         ServerConfig config = {}, const core::PowerLens* framework = nullptr);
  // Out of line: AdaptController is incomplete here.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ServeReport serve(const RequestStream& stream);
  ServeReport serve(std::span<const Task> tasks);

  // Warm-starts the plan cache from a binary plan snapshot (src/io): every
  // record whose graph signature is not already resident is preloaded, so
  // requests for covered models never pay a cold plan compute. Returns the
  // number of plans installed. Plans for signatures outside the deployed
  // model set are installed too (they are harmless and keep the snapshot a
  // plain cache image). Throws io::Error on a malformed snapshot.
  std::size_t warm_start_from_snapshot(const std::string& path);

  PlanCache& plan_cache() noexcept { return cache_; }
  // The adaptation controller, or null when adapt_enabled is false — the
  // bench/test surface for re-plan and retrain counters.
  const AdaptController* adapt_controller() const noexcept {
    return adapt_.get();
  }
  const std::vector<DeployedModel>& models() const noexcept { return models_; }
  const hw::Platform& platform() const noexcept { return *platform_; }
  const ServerConfig& config() const noexcept { return config_; }

  // Deterministic work counts over this server's lifetime: simulator runs
  // executed (each SimEngine run, retries included; a reactive stream's
  // continuous run counts once), and requests whose run came from the
  // served-run memo instead. A serve() of K distinct fault-free keys runs
  // exactly K, whatever the worker count. Deliberately neither metrics nor
  // report fields, so no exported byte depends on them.
  std::uint64_t sim_runs() const noexcept {
    return sim_runs_.load(std::memory_order_relaxed);
  }
  std::uint64_t memo_reuses() const noexcept {
    return memo_reuses_.load(std::memory_order_relaxed);
  }

 private:
  // One simulate_parallel call's served-run memo entry (server.cpp).
  struct MemoEntry;

  struct ServiceResult {
    double service_s = 0.0;
    double energy_j = 0.0;
    std::int64_t images = 0;
    std::size_t dvfs_transitions = 0;
    std::size_t retries = 0;
    double backoff_s = 0.0;
    bool fell_back = false;
    hw::FaultCounters faults;
    // Attempt-level spans + the served plan's per-pass prediction (0 when
    // no plan prediction applies; the fold substitutes the analytic MAXN
    // cost for pinned/MAXN executions).
    std::vector<AttemptRecord> attempts;
    double predicted_pass_time_s = 0.0;
    double predicted_pass_energy_j = 0.0;
    // The memo entry this result was served from, null when it was not
    // memoized; it outlives the fold of its call, which renders the entry's
    // journal fragments into it once.
    MemoEntry* memo = nullptr;
  };

  // The plan for deployed model `model_index`, keyed by its stored
  // signature (no hash on the request path). `ws` is the calling worker's
  // private workspace: plan-cache misses run the whole optimize() pipeline
  // on leased scratch, so steady-state misses do no heap traffic in the
  // matrix hot loops.
  PlanCache::PlanPtr plan_for(std::size_t model_index, linalg::Workspace& ws);
  // Receives finished results in task order: `ready` holds the results of
  // tasks [first, first + ready.size()) of the simulated span.
  using FoldReady = std::function<void(
      std::size_t first, std::span<const ServiceResult> ready)>;
  // Independent per-request simulation, fanned out over worker threads.
  // The calling thread hands each finished prefix of results to
  // `fold_ready` while later requests still simulate; on a clean return
  // every result has been handed over exactly once. A worker's exception
  // stops further claims and is rethrown after every worker has stopped;
  // by then only the published prefix before the failed task was folded.
  std::vector<ServiceResult> simulate_parallel(std::span<const Task> tasks,
                                               const FoldReady& fold_ready);
  // One continuous run_workload, split into per-request results by marks.
  std::vector<ServiceResult> simulate_reactive(std::span<const Task> tasks);
  // Incremental deterministic fold over the serving timeline: constructed
  // once per serve() call, fed chunks of (tasks, services) in task order by
  // consume(), and closed by finish(), which returns the report. Any split
  // of the stream into chunks folds to the same bytes, so the adaptation
  // layer can act between epochs on residuals the fold has already
  // committed, and serve() can fold while the workers simulate.
  class Fold;
  // The framework plan computations run against: the adaptation
  // controller's active bundle when adaptation is on, the injected
  // framework otherwise.
  const core::PowerLens* active_framework() const;
  // The configured journal sink, or null when journaling is off.
  obs::Journal* active_journal() const;
  // The configured residual sink, or null when scoring is off.
  obs::Residuals* active_residuals() const;

  const hw::Platform* platform_;  // non-owning
  std::vector<DeployedModel> models_;
  ServerConfig config_;
  const core::PowerLens* framework_;  // non-owning, may be null
  PlanCache cache_;
  // Cumulative marks of the last reactive run; empty for plan policies.
  // The fold chains finish times off these so a closed-loop reactive
  // serve reproduces the continuous run bit for bit.
  std::vector<hw::WorkItemMark> marks_;
  // Fault totals of the last reactive run (marks differencing cannot
  // attribute them per item); zero for plan policies.
  hw::FaultCounters reactive_faults_;
  // The analytic MAXN per-pass cost each model would incur at pinned
  // maximum levels (the predicted cost of MAXN and fallback executions).
  // Plan-cache keys, journal records and residual keys read each model's
  // signature from its graph, which computed it once at construction.
  std::vector<hw::BlockCost> maxn_costs_;
  // Journal run id of the serve() in flight (claimed per call, so records
  // from successive serves never interleave in the sorted export).
  std::uint64_t run_id_ = 0;
  // Closed-loop adaptation state (null when adapt_enabled is false).
  std::unique_ptr<AdaptController> adapt_;
  std::atomic<std::uint64_t> sim_runs_{0};
  std::atomic<std::uint64_t> memo_reuses_{0};
};

}  // namespace powerlens::serve
