#include "serve/server.hpp"

#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "fault/fault_injector.hpp"
#include "hw/sim_engine.hpp"
#include "io/interchange.hpp"
#include "obs/json.hpp"
#include "obs/journal.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "serve/adapt.hpp"
#include "serve/signature.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <queue>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace powerlens::serve {

namespace {

constexpr double kUsPerS = 1e6;
constexpr int kDeviceTid = 0;  // per-request spans on the device timeline
constexpr int kQueueTid = 1;   // in-system depth counter + rejections
constexpr int kWaitTid = 2;    // async queue-wait spans (overlapping)

// Journal seq slots per request: 0 = the run header (task 0 only), 1 = the
// request record, 2 + attempt = each execution attempt.
// The adaptation layer's epoch records live at 32+ (serve/adapt.cpp).
constexpr std::uint32_t kSeqRequest = 1;
constexpr std::uint32_t kSeqFirstAttempt = 2;

// Nearest-rank quantile over an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(q * sorted.size()));
  return sorted[idx];
}

}  // namespace

// One distinct (model, plan, passes) run of a simulate_parallel call. The
// worker that inserts it simulates and publishes it; workers that find it
// wait until it is ready. The entry holds its plan, so no other plan can be
// allocated at the key's address while the call runs. The journal
// fragments belong to the fold on the calling thread, which renders each
// once, on the first request the entry serves (DESIGN §5m).
struct Server::MemoEntry {
  PlanCache::PlanPtr plan;
  // Written once by the inserting worker before `ready` (under the memo
  // lock), read-only afterwards. The summary keeps the scalars a worker
  // reads; the trace vectors are dropped.
  bool ready = false;
  std::exception_ptr error;
  hw::ExecutionResult summary;
  // Fold thread only.
  std::string attempt_fields;     // the attempt record's body
  std::string service_fields;     // "service_s" … "faults"
  std::string prediction_fields;  // "predicted_time_s" … "energy_residual"
};

const char* policy_name(ServePolicy policy) noexcept {
  switch (policy) {
    case ServePolicy::kPowerLens: return "PowerLens";
    case ServePolicy::kMaxn: return "MAXN";
    case ServePolicy::kBiM: return "BiM";
    case ServePolicy::kFpgG: return "FPG-G";
    case ServePolicy::kFpgCG: return "FPG-CG";
  }
  return "?";
}

bool is_plan_policy(ServePolicy policy) noexcept {
  return policy == ServePolicy::kPowerLens || policy == ServePolicy::kMaxn;
}

Server::Server(const hw::Platform& platform,
               std::vector<DeployedModel> models, ServerConfig config,
               const core::PowerLens* framework)
    : platform_(&platform),
      models_(std::move(models)),
      config_(config),
      framework_(framework),
      cache_(config_.plan_cache_capacity) {
  if (models_.empty()) {
    throw std::invalid_argument("Server: no deployed models");
  }
  for (const DeployedModel& m : models_) {
    if (m.graph.empty()) {
      throw std::invalid_argument("Server: deployed model '" + m.name +
                                  "' has an empty graph");
    }
  }
  config_.faults.validate();
  if (config_.degrade.backoff_base_s < 0.0 ||
      config_.degrade.backoff_cap_s < 0.0) {
    throw std::invalid_argument("Server: backoff times must be >= 0");
  }
  maxn_costs_.reserve(models_.size());
  for (const DeployedModel& m : models_) {
    // Per-pass prediction for pinned-MAXN executions (the MAXN policy and
    // fault fallbacks): the lag-free analytic cost at maximum levels.
    maxn_costs_.push_back(hw::analytic_block_cost(
        *platform_, m.graph.layers(), platform_->max_gpu_level(),
        platform_->max_cpu_level()));
  }
  if (config_.adapt_enabled) {
    // The closed loop re-plans from residual drift and installs into the
    // plan cache, so it needs all three: the plan policy that predicts, the
    // residual sink that scores, and the cache the corrections land in.
    if (config_.policy != ServePolicy::kPowerLens) {
      throw std::invalid_argument(
          "Server: adaptation requires the PowerLens policy");
    }
    if (framework_ == nullptr) {
      throw std::invalid_argument(
          "Server: adaptation requires a framework (it is copied into the "
          "adaptation controller at construction, so train it first)");
    }
    if (!config_.residuals_enabled) {
      throw std::invalid_argument(
          "Server: adaptation requires residual scoring");
    }
    if (!config_.use_plan_cache) {
      throw std::invalid_argument(
          "Server: adaptation requires the plan cache");
    }
    if (config_.plan_cache_capacity > 0) {
      // An evicted re-plan would come back as a cold plan, so which plans
      // survive (and the served energy) would depend on the worker count.
      throw std::invalid_argument(
          "Server: adaptation requires an unbounded plan cache");
    }
    AdaptConfig ac;
    ac.epoch_tasks = config_.adapt_epoch_tasks;
    ac.retrain = config_.adapt_retrain;
    ac.retrain_min_rows = config_.adapt_retrain_min_rows;
    adapt_ = std::make_unique<AdaptController>(*platform_, models_,
                                               *framework_, ac);
  }
}

Server::~Server() = default;

obs::Journal* Server::active_journal() const {
  if (!config_.journal_enabled) return nullptr;
  return config_.journal != nullptr ? config_.journal
                                    : &obs::default_journal();
}

obs::Residuals* Server::active_residuals() const {
  if (!config_.residuals_enabled) return nullptr;
  return config_.residuals != nullptr ? config_.residuals
                                      : &obs::default_residuals();
}

const core::PowerLens* Server::active_framework() const {
  return adapt_ != nullptr ? &adapt_->framework() : framework_;
}

PlanCache::PlanPtr Server::plan_for(std::size_t model_index,
                                    linalg::Workspace& ws) {
  const core::PowerLens* const framework = active_framework();
  if (framework == nullptr || !framework->trained()) {
    throw std::logic_error(
        "Server: the PowerLens policy needs a trained framework");
  }
  // `ws` is this worker's workspace; plans are workspace-invariant, so
  // which worker computes a miss never changes bits.
  const auto factory = [framework, &ws](const dnn::Graph& graph) {
    return framework->optimize(graph, &ws);
  };
  const dnn::Graph& graph = models_[model_index].graph;
  if (config_.use_plan_cache) {
    return cache_.get_or_compute(graph.signature(), graph, factory);
  }
  return std::make_shared<const core::OptimizationPlan>(factory(graph));
}

std::vector<Server::ServiceResult> Server::simulate_parallel(
    std::span<const Task> tasks, const FoldReady& fold_ready) {
  std::vector<ServiceResult> results(tasks.size());
  if (tasks.empty()) return results;

  // Resolving a PowerLens plan touches the cache (or the framework); probe
  // the error path up front so worker threads never throw on a
  // misconfigured server.
  if (config_.policy == ServePolicy::kPowerLens) {
    const core::PowerLens* const framework = active_framework();
    if (framework == nullptr || !framework->trained()) {
      throw std::logic_error(
          "Server: the PowerLens policy needs a trained framework");
    }
  }

  const std::size_t num_workers =
      std::min(std::max<std::size_t>(1, config_.num_workers), tasks.size());
  // Workers claim ascending task indices; the first failure stops claims.
  std::atomic<std::size_t> next_task{0};
  std::atomic<bool> stop{false};
  // Workers publish each finished result (or the first error) here; the
  // calling thread hands the published prefix to fold_ready while later
  // tasks still simulate.
  std::mutex publish_mu;
  std::condition_variable publish_cv;
  std::vector<char> published(tasks.size(), 0);
  std::size_t workers_done = 0;
  std::exception_ptr first_error;

  const bool inject = config_.faults.active();
  // Without faults or a trace to feed, a run is a pure function of (model,
  // plan, passes), so the call simulates each distinct one once, on
  // whichever worker claims it first (DESIGN §5m). A null plan in the key
  // is a pinned MAXN run. Entries are node-stable and outlive the fold.
  const bool memoize = !inject && !obs::default_trace().enabled();
  using MemoKey =
      std::tuple<std::size_t, const core::OptimizationPlan*, int>;
  std::mutex memo_mu;
  std::condition_variable memo_cv;
  std::map<MemoKey, MemoEntry> memo;
  // The memoized run of `key`: simulated through `simulate` by the first
  // worker to need it, waited for by every other. A failed simulation is
  // rethrown to each worker that needs the key.
  const auto memoized = [&](const MemoKey& key, PlanCache::PlanPtr plan,
                            const auto& simulate) -> MemoEntry& {
    std::unique_lock<std::mutex> lock(memo_mu);
    const auto [it, inserted] = memo.try_emplace(key);
    MemoEntry& entry = it->second;
    if (!inserted) {
      memo_cv.wait(lock, [&] { return entry.ready; });
      if (entry.error) std::rethrow_exception(entry.error);
      lock.unlock();
      // A reuse still counts as a simulator run in powerlens_sim_*.
      hw::record_run_metrics(entry.summary);
      memo_reuses_.fetch_add(1, std::memory_order_relaxed);
      return entry;
    }
    entry.plan = std::move(plan);
    lock.unlock();
    hw::ExecutionResult fresh;
    std::exception_ptr error;
    try {
      fresh = simulate();
      fresh.gpu_trace = {};
      fresh.power_samples = {};
      fresh.item_marks = {};
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    entry.summary = std::move(fresh);
    entry.error = error;
    entry.ready = true;
    lock.unlock();
    memo_cv.notify_all();
    if (error) std::rethrow_exception(error);
    return entry;
  };
  const auto worker = [&] {
    // Each worker owns its simulator and CPU governor; runs are independent
    // (the governor resets per run), so results are keyed by task index and
    // invariant to which worker claims which request. Fault streams are a
    // pure function of (spec seed, task id, attempt), preserving that
    // invariance under injection.
    hw::SimEngine engine(*platform_);
    baselines::OndemandGovernor cpu_governor;
    // Private scratch pool for every plan computed on this worker; after the
    // first miss of each graph shape, further misses allocate nothing.
    linalg::Workspace ws;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t idx = next_task.fetch_add(1, std::memory_order_relaxed);
      if (idx >= tasks.size()) break;
      try {
        const Task& task = tasks[idx];
        const DeployedModel& model = models_[task.model_index];
        PlanCache::PlanPtr plan;  // keeps the schedule alive through run()
        if (config_.policy == ServePolicy::kPowerLens) {
          plan = plan_for(task.model_index, ws);
        }
        ServiceResult out;
        if (plan != nullptr) {
          out.predicted_pass_time_s = plan->predicted_pass_time_s;
          out.predicted_pass_energy_j = plan->predicted_pass_energy_j;
        }
        for (std::size_t attempt = 0;; ++attempt) {
          hw::RunPolicy policy = engine.default_policy();
          policy.trace_label = policy_name(config_.policy);
          std::optional<fault::FaultInjector> injector;
          if (inject) {
            injector.emplace(config_.faults,
                             fault::request_fault_seed(config_.faults.seed,
                                                       task.id, attempt));
            policy.faults = &*injector;
          }
          // Once fallen back, the request runs pinned at the MAXN state:
          // no schedule, no governor, hence no DVFS transitions to fail.
          const bool planned =
              config_.policy == ServePolicy::kPowerLens && !out.fell_back;
          if (planned) {
            policy.schedule = &plan->schedule;
            policy.governor = &cpu_governor;
          }
          const auto simulate = [&] {
            sim_runs_.fetch_add(1, std::memory_order_relaxed);
            return engine.run(model.graph, task.passes, policy);
          };
          hw::ExecutionResult fresh;
          const hw::ExecutionResult* run = &fresh;
          if (!memoize) {
            fresh = simulate();
          } else {
            // Without injection no attempt degrades, so a memoized request
            // has exactly this one attempt.
            MemoEntry& entry = memoized(
                {task.model_index, planned ? plan.get() : nullptr,
                 task.passes},
                planned ? plan : nullptr, simulate);
            out.memo = &entry;
            run = &entry.summary;
          }
          const hw::ExecutionResult& r = *run;
          // Every attempt occupies the device and burns energy; only the
          // accepted attempt's output counts as served images.
          out.service_s += r.time_s;
          out.energy_j += r.energy_j;
          out.dvfs_transitions += r.dvfs_transitions;
          out.faults += r.faults;
          const bool degraded =
              inject && config_.degrade.fallback_enabled && !out.fell_back &&
              r.faults.dvfs_failed > config_.degrade.dvfs_fault_tolerance;
          AttemptRecord rec;
          rec.time_s = r.time_s;
          rec.energy_j = r.energy_j;
          rec.mean_power_w = r.telemetry_mean_power_w;
          rec.peak_power_w = r.telemetry_peak_power_w;
          rec.dvfs_stall_s = r.dvfs_stall_s;
          rec.throttled_s = r.thermal_throttled_s;
          rec.dvfs_transitions = r.dvfs_transitions;
          rec.faults = r.faults;
          rec.degraded = degraded;
          rec.pinned = !planned;
          if (degraded) {
            if (attempt >= config_.degrade.max_retries) {
              out.fell_back = true;  // next attempt runs pinned
            }
            ++out.retries;
            const double backoff =
                std::min(config_.degrade.backoff_base_s *
                             std::ldexp(1.0, static_cast<int>(attempt)),
                         config_.degrade.backoff_cap_s);
            out.backoff_s += backoff;
            out.service_s += backoff;
            rec.backoff_s = backoff;
          } else {
            out.images = r.images;
          }
          out.attempts.push_back(rec);
          if (!degraded) break;
        }
        results[idx] = std::move(out);
        {
          const std::lock_guard<std::mutex> lock(publish_mu);
          published[idx] = 1;
        }
        publish_cv.notify_one();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(publish_mu);
        if (!first_error) first_error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(publish_mu);
      ++workers_done;
    }
    publish_cv.notify_one();
  };

  // Folds the longest published prefix past `folded`, first blocking until
  // the next result is published or every worker has exited (a failed task
  // is never published). Returns whether it folded any.
  std::size_t folded = 0;
  const auto fold_published = [&] {
    std::size_t end = folded;
    {
      std::unique_lock<std::mutex> lock(publish_mu);
      publish_cv.wait(lock, [&] {
        return published[folded] != 0 || workers_done == num_workers;
      });
      while (end < tasks.size() && published[end] != 0) ++end;
    }
    if (end == folded) return false;
    fold_ready(folded, std::span<const ServiceResult>(results).subspan(
                           folded, end - folded));
    folded = end;
    return true;
  };

  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) workers.emplace_back(worker);
  try {
    while (folded < tasks.size() && fold_published()) {
    }
  } catch (...) {
    // fold_ready threw: stop the workers before unwinding.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
  // The memo dies with this call; nothing past the fold may reach it.
  for (ServiceResult& r : results) r.memo = nullptr;
  return results;
}

std::vector<Server::ServiceResult> Server::simulate_reactive(
    std::span<const Task> tasks) {
  std::vector<hw::WorkItem> items;
  items.reserve(tasks.size());
  for (const Task& task : tasks) {
    items.push_back({&models_[task.model_index].graph, task.passes});
  }

  baselines::OndemandGovernor ondemand;
  baselines::FpgGovernor fpg_g(baselines::FpgMode::kGpuOnly);
  baselines::FpgGovernor fpg_cg(baselines::FpgMode::kCpuGpu);
  hw::SimEngine engine(*platform_);
  hw::RunPolicy policy = engine.default_policy();
  policy.trace = config_.trace;
  policy.trace_label = policy_name(config_.policy);
  switch (config_.policy) {
    case ServePolicy::kBiM: policy.governor = &ondemand; break;
    case ServePolicy::kFpgG: policy.governor = &fpg_g; break;
    case ServePolicy::kFpgCG: policy.governor = &fpg_cg; break;
    default:
      throw std::logic_error("Server: not a reactive policy");
  }

  // One continuous run gets one continuous fault stream; per-item fault
  // attribution is impossible through marks differencing, so the totals
  // land in reactive_faults_ for the fold to report stream-wide.
  std::optional<fault::FaultInjector> injector;
  if (config_.faults.active()) {
    injector.emplace(config_.faults,
                     fault::reactive_fault_seed(config_.faults.seed));
    policy.faults = &*injector;
  }

  sim_runs_.fetch_add(1, std::memory_order_relaxed);
  const hw::ExecutionResult r = engine.run_workload(items, policy);
  marks_.assign(r.item_marks.begin(), r.item_marks.end());
  reactive_faults_ = r.faults;

  std::vector<ServiceResult> results(tasks.size());
  hw::WorkItemMark prev;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const hw::WorkItemMark& mark = r.item_marks[i];
    ServiceResult& svc = results[i];
    svc.service_s = mark.end_time_s - prev.end_time_s;
    svc.energy_j = mark.end_energy_j - prev.end_energy_j;
    svc.images = mark.end_images - prev.end_images;
    svc.dvfs_transitions = mark.end_transitions - prev.end_transitions;
    prev = mark;
  }
  return results;
}

// The incremental deterministic fold (see the declaration in server.hpp):
// consume() is the former fold_timeline loop body over one epoch chunk,
// finish() its tail aggregation. State that used to be function-local
// (admission queue, device clock, latency sample, residual sums) lives in
// members so it threads across chunks; feeding the whole stream through one
// consume() reproduces the monolithic fold bit for bit.
class Server::Fold {
 public:
  Fold(Server& s, std::size_t total_tasks, std::uint64_t cache_hits_before,
       std::uint64_t cache_misses_before,
       const std::vector<bool>& plan_resident_before)
      : s_(s),
        hits_before_(cache_hits_before),
        misses_before_(cache_misses_before) {
    report_.platform = s_.platform_->name;
    report_.policy = policy_name(s_.config_.policy);
    report_.total_tasks = total_tasks;
    report_.outcomes.resize(total_tasks);

    obs::TraceWriter& tw = s_.config_.trace != nullptr ? *s_.config_.trace
                                                       : obs::default_trace();
    trace_ = tw.enabled() ? &tw : nullptr;
    if (trace_ != nullptr) {
      pid_ = trace_->next_virtual_pid();
      trace_->name_process(pid_, "serve " + s_.platform_->name + " (" +
                                     report_.policy + ")");
      trace_->name_thread(pid_, kDeviceTid, "device");
      trace_->name_thread(pid_, kQueueTid, "queue");
      trace_->name_thread(pid_, kWaitTid, "wait");
    }

    // The fold runs single-threaded in task order, so journal records and
    // residual scoring below are deterministic regardless of how the
    // workers raced: same stream -> same bytes at any worker count.
    journal_ = s_.active_journal();
    residuals_ = s_.active_residuals();
    plan_based_ = s_.config_.policy == ServePolicy::kPowerLens;
    // "Cold" below means "first in task order to need a plan that was not
    // already resident when serve() began" — a model covered by a snapshot
    // warm start (or a previous serve call) never reports cold, matching
    // the zero-miss counter of a warm cache.
    plan_seen_ = plan_resident_before;
    plan_seen_.resize(s_.models_.size(), false);
    model_fields_.resize(s_.models_.size());
    latencies_.reserve(total_tasks);
  }

  // Folds one chunk of tasks; `base` is the chunk's offset in the stream
  // (outcomes and reactive marks are indexed globally). Chunks must arrive
  // in stream order.
  void consume(std::span<const Task> tasks,
               std::span<const ServiceResult> services, std::size_t base);
  // Tail aggregation; call exactly once, after the last consume().
  ServeReport finish();

 private:
  // One structured record per request (admitted, rejected, or shed), then
  // one per execution attempt the workers simulated for it — every record
  // of a serve() call is appended here, in ascending key order. A memoized
  // run's attempt body and its run-only request fields are the same for
  // every request it serves, so they render once per memo entry; the model
  // and signature fields render once per model. Each record then formats
  // only its own fields.
  void journal_request(const RequestOutcome& o, const ServiceResult& svc,
                       std::string_view outcome) {
    if (journal_ == nullptr) return;
    MemoEntry* const memo = svc.memo;
    // `render`'s fields: rendered once into `shared` (a memo entry's slot,
    // read by every request the entry serves), or anew when it is null.
    // Every fragment holds a field, so an empty slot is an unrendered one.
    std::string scratch;
    const auto fragment = [&scratch](std::string* shared,
                                     const auto& render) -> const std::string& {
      std::string& out = shared != nullptr ? *shared : scratch;
      if (shared == nullptr || out.empty()) {
        obs::JsonWriter f;
        render(f);
        out = f.body();
      }
      return out;
    };
    ModelFields& model = model_fields(o.model_index);
    obs::JsonWriter w;
    w.fields(model.name);
    w.field("outcome", outcome);
    w.field("arrival_s", o.arrival_s);
    if (o.admitted) {
      w.field("start_s", o.start_s);
      w.field("finish_s", o.finish_s);
      w.field("wait_s", o.wait_s);
      w.fields(fragment(memo != nullptr ? &memo->service_fields : nullptr,
                        [&](obs::JsonWriter& f) {
        f.field("service_s", o.service_s);
        f.field("energy_j", o.energy_j);
        f.field("images", static_cast<double>(o.images));
        f.field("retries", static_cast<double>(o.retries));
        f.field("backoff_s", o.backoff_s);
        f.field("fell_back", o.fell_back);
        f.field("faults", fault::fault_tag(o.faults));
      }));
      if (o.deadline_s > 0.0) {
        w.field("deadline_s", o.deadline_s);
        w.field("deadline_missed", o.deadline_missed);
      }
    }
    if (plan_based_) {
      w.fields(model.signature);
      w.field("plan_cold", o.plan_cold);
    }
    // Rejected and shed requests carry no prediction: their nulls are not
    // the memo entry's fields.
    std::string* const prediction =
        o.admitted && memo != nullptr ? &memo->prediction_fields : nullptr;
    w.fields(fragment(prediction, [&](obs::JsonWriter& f) {
      f.field_or_null("predicted_time_s", o.predicted_time_s);
      f.field_or_null("predicted_energy_j", o.predicted_energy_j);
      f.field_or_null("observed_time_s", o.observed_time_s);
      f.field_or_null("observed_energy_j", o.observed_energy_j);
      f.field_or_null("latency_residual", o.latency_residual);
      f.field_or_null("energy_residual", o.energy_residual);
    }));
    journal_->append(s_.run_id_, o.task_id, kSeqRequest, "request", w.body());
    for (std::size_t a = 0; a < svc.attempts.size(); ++a) {
      const AttemptRecord& rec = svc.attempts[a];
      journal_->append(
          s_.run_id_, o.task_id,
          kSeqFirstAttempt + static_cast<std::uint32_t>(a), "attempt",
          fragment(memo != nullptr ? &memo->attempt_fields : nullptr,
                   [&](obs::JsonWriter& f) {
            f.field("attempt", static_cast<double>(a));
            f.field("time_s", rec.time_s);
            f.field("energy_j", rec.energy_j);
            f.field("mean_power_w", rec.mean_power_w);
            f.field("peak_power_w", rec.peak_power_w);
            f.field("dvfs_transitions",
                    static_cast<double>(rec.dvfs_transitions));
            f.field("faults", fault::fault_tag(rec.faults));
            f.field("degraded", rec.degraded);
            f.field("pinned", rec.pinned);
            if (rec.backoff_s > 0.0) f.field("backoff_s", rec.backoff_s);
          }));
    }
  }

  // The "model" and "plan_signature" fields of one deployed model.
  struct ModelFields {
    std::string name;
    std::string signature;
  };
  ModelFields& model_fields(std::size_t model_index) {
    ModelFields& m = model_fields_[model_index];
    if (m.name.empty()) {
      m.name = obs::JsonWriter()
                   .field("model", s_.models_[model_index].name)
                   .body();
      m.signature =
          obs::JsonWriter()
              .field("plan_signature",
                     obs::hex_signature(
                         s_.models_[model_index].graph.signature()))
              .body();
    }
    return m;
  }

  Server& s_;
  ServeReport report_;
  obs::TraceWriter* trace_ = nullptr;
  int pid_ = 0;
  obs::Journal* journal_ = nullptr;
  obs::Residuals* residuals_ = nullptr;
  bool plan_based_ = false;
  // The engine idles this long after every pass; the static per-pass
  // prediction excludes it, so fold it back in when scaling to a request.
  const double gap_s_ = hw::RunPolicy{}.inter_pass_gap_s;
  std::vector<bool> plan_seen_;
  std::vector<ModelFields> model_fields_;  // rendered on first use
  std::size_t deadline_tasks_ = 0;  // admitted requests carrying a deadline
  double latency_residual_sum_ = 0.0;
  double energy_residual_sum_ = 0.0;
  // Finish times of admitted tasks still in the system (waiting or in
  // service) — the simulated queue the admission bound applies to.
  std::priority_queue<double, std::vector<double>, std::greater<>> in_system_;
  double device_free_ = 0.0;
  double idle_total_ = 0.0;  // continuous mode: idle inserted before starts
  std::vector<double> latencies_;
  std::uint64_t hits_before_ = 0;
  std::uint64_t misses_before_ = 0;
};

void Server::Fold::consume(std::span<const Task> tasks,
                           std::span<const ServiceResult> services,
                           std::size_t base) {
  const bool continuous = !s_.marks_.empty();

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    RequestOutcome& out = report_.outcomes[base + i];
    out.task_id = task.id;
    out.model_index = task.model_index;
    out.arrival_s = task.arrival_s;
    out.deadline_s = task.deadline_s;
    if (plan_based_) {
      // Plan provenance. The workers resolved a plan for every task (the
      // fold's admission decisions come later), so "cold" means "first in
      // task order to need this model's plan" — the deterministic stand-in
      // for the scheduling-dependent cache miss counter.
      out.plan_signature = s_.models_[task.model_index].graph.signature();
      out.plan_cold = !plan_seen_[task.model_index];
      plan_seen_[task.model_index] = true;
    }

    const ServiceResult& svc = services[i];
    while (!in_system_.empty() && in_system_.top() <= task.arrival_s) {
      in_system_.pop();
    }
    if (s_.config_.admission_capacity > 0 &&
        in_system_.size() >= s_.config_.admission_capacity) {
      ++report_.rejected;
      if (trace_ != nullptr) {
        trace_->instant_at(pid_, kQueueTid, task.arrival_s * kUsPerS,
                           "rejected", "serve",
                           {obs::TraceArg::num(
                               "task", static_cast<double>(task.id))});
      }
      journal_request(out, svc, "rejected");
      continue;
    }

    if (s_.config_.degrade.shed_doomed && task.deadline_s > 0.0) {
      // The service time is already known (the simulation ran host-side),
      // so a request that cannot meet its deadline even if started now is
      // shed instead of burning device time on a guaranteed miss.
      const double would_start = std::max(task.arrival_s, device_free_);
      if (would_start + svc.service_s - task.arrival_s > task.deadline_s) {
        out.shed = true;
        ++report_.shed;
        if (trace_ != nullptr) {
          trace_->instant_at(pid_, kQueueTid, task.arrival_s * kUsPerS,
                             "shed", "serve",
                             {obs::TraceArg::num(
                                 "task", static_cast<double>(task.id))});
        }
        journal_request(out, svc, "shed");
        continue;
      }
    }
    out.admitted = true;
    out.start_s = std::max(task.arrival_s, device_free_);
    if (continuous) {
      // Finish times chain off the continuous run's own clock so the
      // closed-loop case reproduces it bit for bit; idle gaps only shift
      // the chain.
      idle_total_ += out.start_s - device_free_;
      out.finish_s = idle_total_ + s_.marks_[base + i].end_time_s;
    } else {
      out.finish_s = out.start_s + svc.service_s;
    }
    device_free_ = out.finish_s;
    in_system_.push(out.finish_s);
    report_.peak_queue_depth =
        std::max(report_.peak_queue_depth, in_system_.size());

    out.service_s = svc.service_s;
    out.wait_s = out.start_s - task.arrival_s;
    out.energy_j = svc.energy_j;
    out.images = svc.images;
    out.dvfs_transitions = svc.dvfs_transitions;
    out.retries = svc.retries;
    out.backoff_s = svc.backoff_s;
    out.fell_back = svc.fell_back;
    out.faults = svc.faults;
    out.attempts = svc.attempts;
    out.deadline_missed =
        task.deadline_s > 0.0 && out.latency_s() > task.deadline_s;

    // Predicted-vs-observed scoring. The prediction comes from the plan the
    // accepted attempt actually ran under: the preset schedule's static
    // cost for PowerLens, the analytic pinned-MAXN cost for the MAXN policy
    // and fault fallbacks. Observed values are the accepted (final) attempt
    // only — retries and backoff are availability costs, not model error.
    double pass_time_s = 0.0;
    double pass_energy_j = 0.0;
    if (s_.config_.policy == ServePolicy::kMaxn || svc.fell_back) {
      const hw::BlockCost& cost = s_.maxn_costs_[task.model_index];
      pass_time_s = cost.time_s;
      pass_energy_j = cost.energy_j;
    } else if (plan_based_) {
      pass_time_s = svc.predicted_pass_time_s;
      pass_energy_j = svc.predicted_pass_energy_j;
    }
    if (pass_time_s > 0.0 && !svc.attempts.empty()) {
      const AttemptRecord& accepted = svc.attempts.back();
      const double passes = static_cast<double>(task.passes);
      out.predicted_time_s = passes * (pass_time_s + gap_s_);
      out.predicted_energy_j = passes * pass_energy_j;
      out.observed_time_s = accepted.time_s;
      out.observed_energy_j = accepted.energy_j;
      out.latency_residual =
          (out.observed_time_s - out.predicted_time_s) / out.predicted_time_s;
      if (out.predicted_energy_j > 0.0) {
        out.energy_residual = (out.observed_energy_j -
                               out.predicted_energy_j) /
                              out.predicted_energy_j;
      }
      if (residuals_ != nullptr) {
        // A fallen-back request was not served by its plan — keep the
        // signature series clean and score it model-level only.
        const std::uint64_t sig =
            plan_based_ && !svc.fell_back ? out.plan_signature : 0;
        residuals_->record(report_.policy,
                           s_.models_[task.model_index].name, sig,
                           out.predicted_time_s, out.observed_time_s,
                           out.predicted_energy_j, out.observed_energy_j);
      }
      ++report_.residual_scored;
      latency_residual_sum_ += out.latency_residual;
      energy_residual_sum_ +=
          std::isfinite(out.energy_residual) ? out.energy_residual : 0.0;
    }

    ++report_.admitted;
    if (out.deadline_missed) ++report_.deadline_misses;
    if (task.deadline_s > 0.0) ++deadline_tasks_;
    if (!out.deadline_missed) report_.goodput_images += out.images;
    latencies_.push_back(out.latency_s());
    report_.makespan_s = out.finish_s;
    report_.retries += svc.retries;
    report_.backoff_s += svc.backoff_s;
    if (svc.fell_back) ++report_.fallbacks;
    if (!continuous) {
      report_.energy_j += svc.energy_j;
      report_.busy_s += svc.service_s;
      report_.images += svc.images;
      report_.dvfs_transitions += svc.dvfs_transitions;
      report_.faults += svc.faults;
    }
    journal_request(out, svc, "served");

    if (trace_ != nullptr) {
      const DeployedModel& model = s_.models_[task.model_index];
      trace_->counter(pid_, kQueueTid, task.arrival_s * kUsPerS, "in_system",
                      static_cast<double>(in_system_.size()));
      // Queue-wait spans overlap whenever requests pile up behind the
      // device, so they ride the async track keyed by task id.
      trace_->async_begin_at(pid_, kWaitTid, task.id,
                             task.arrival_s * kUsPerS, "wait", "serve",
                             {obs::TraceArg::num(
                                 "task", static_cast<double>(task.id))});
      trace_->async_end_at(pid_, kWaitTid, task.id, out.start_s * kUsPerS,
                           "wait", "serve");
      trace_->begin_at(pid_, kDeviceTid, out.start_s * kUsPerS, model.name,
                       "serve",
                       {obs::TraceArg::num("task",
                                           static_cast<double>(task.id)),
                        obs::TraceArg::num("wait_ms", out.wait_s * 1e3),
                        obs::TraceArg::num("retries",
                                           static_cast<double>(out.retries)),
                        obs::TraceArg::num("fell_back", out.fell_back)});
      // Attempt/backoff sub-spans nested inside the request span replay the
      // worker's retry machinery on the device timeline (plan policies;
      // reactive streams record no attempts).
      double cursor_s = out.start_s;
      for (std::size_t a = 0; a < svc.attempts.size(); ++a) {
        const AttemptRecord& rec = svc.attempts[a];
        const std::string tag = fault::fault_tag(rec.faults);
        trace_->begin_at(pid_, kDeviceTid, cursor_s * kUsPerS, "attempt",
                         "serve",
                         {obs::TraceArg::num("attempt",
                                             static_cast<double>(a)),
                          obs::TraceArg::str("faults", tag),
                          obs::TraceArg::num("degraded", rec.degraded),
                          obs::TraceArg::num("pinned", rec.pinned)});
        cursor_s += rec.time_s;
        trace_->end_at(pid_, kDeviceTid, cursor_s * kUsPerS, "attempt",
                       "serve");
        if (rec.backoff_s > 0.0) {
          trace_->begin_at(pid_, kDeviceTid, cursor_s * kUsPerS, "backoff",
                           "serve",
                           {obs::TraceArg::num("seconds", rec.backoff_s)});
          cursor_s += rec.backoff_s;
          trace_->end_at(pid_, kDeviceTid, cursor_s * kUsPerS, "backoff",
                         "serve");
        }
      }
      trace_->end_at(pid_, kDeviceTid, out.finish_s * kUsPerS, model.name,
                     "serve");
    }
  }
}

ServeReport Server::Fold::finish() {
  const bool continuous = !s_.marks_.empty();
  if (continuous) {
    // Aggregates come from the continuous run's own accumulators, not a
    // re-summation of per-item differences (floating-point addition does
    // not cancel exactly), so the report equals the direct run_workload.
    const hw::WorkItemMark& last = s_.marks_.back();
    report_.energy_j = last.end_energy_j;
    report_.busy_s = last.end_time_s;
    report_.images = last.end_images;
    report_.dvfs_transitions = last.end_transitions;
    report_.faults = s_.reactive_faults_;
  }

  std::sort(latencies_.begin(), latencies_.end());
  if (latencies_.empty()) {
    // No request completed: latency statistics do not exist. NaN (emitted
    // as JSON null) is the honest encoding — the previous 0.0 read as a
    // perfect p99 on a serve() call that served nothing.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    report_.latency_mean_s = nan;
    report_.latency_p50_s = nan;
    report_.latency_p99_s = nan;
    report_.latency_max_s = nan;
  } else {
    double sum = 0.0;
    for (const double v : latencies_) sum += v;
    report_.latency_mean_s = sum / static_cast<double>(latencies_.size());
    report_.latency_p50_s = quantile(latencies_, 0.50);
    report_.latency_p99_s = quantile(latencies_, 0.99);
    report_.latency_max_s = latencies_.back();
  }
  report_.plan_cache_hits = s_.cache_.hits() - hits_before_;
  report_.plan_cache_misses = s_.cache_.misses() - misses_before_;
  report_.plan_cache_preloaded = s_.cache_.preloaded();
  if (deadline_tasks_ > 0) {
    report_.deadline_burn_rate =
        static_cast<double>(report_.deadline_misses) /
        static_cast<double>(deadline_tasks_);
  }
  if (report_.residual_scored > 0) {
    const double n = static_cast<double>(report_.residual_scored);
    report_.latency_residual_mean = latency_residual_sum_ / n;
    report_.energy_residual_mean = energy_residual_sum_ / n;
  }

  // Aggregate accounting in the global registry, once per serve() call.
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter("powerlens_serve_requests_total", "requests offered")
      .inc(static_cast<double>(report_.total_tasks));
  metrics.counter("powerlens_serve_admitted_total", "requests admitted")
      .inc(static_cast<double>(report_.admitted));
  metrics
      .counter("powerlens_serve_rejected_total",
               "requests rejected by admission control")
      .inc(static_cast<double>(report_.rejected));
  metrics
      .counter("powerlens_serve_deadline_misses_total",
               "admitted requests finishing past their deadline")
      .inc(static_cast<double>(report_.deadline_misses));
  metrics
      .counter("powerlens_serve_energy_joules_total",
               "simulated energy of admitted requests")
      .inc(report_.energy_j);
  metrics
      .counter("powerlens_serve_images_total",
               "images inferred for admitted requests")
      .inc(static_cast<double>(report_.images));
  metrics
      .gauge("powerlens_serve_peak_queue_depth",
             "in-system high-water mark of the last serve() call")
      .set(static_cast<double>(report_.peak_queue_depth));
  obs::Histogram& latency_hist = metrics.histogram(
      "powerlens_serve_latency_seconds", obs::default_seconds_buckets(),
      "request latency (arrival to finish, simulated)");
  for (const double v : latencies_) latency_hist.observe(v);
  metrics
      .counter("powerlens_serve_slo_goodput_images_total",
               "images delivered by admitted requests that met their "
               "deadline (all admitted images when none is set)")
      .inc(static_cast<double>(report_.goodput_images));
  if (std::isfinite(report_.deadline_burn_rate)) {
    metrics
        .gauge("powerlens_serve_slo_deadline_burn_ratio",
               "deadline misses over deadline-bearing admitted requests, "
               "last serve() call")
        .set(report_.deadline_burn_rate);
  }
  if (report_.residual_scored > 0) {
    obs::Histogram& latency_residual_hist = metrics.histogram(
        "powerlens_serve_residual_latency_ratio",
        obs::Residuals::bucket_bounds(),
        "signed relative latency prediction error per scored request");
    obs::Histogram& energy_residual_hist = metrics.histogram(
        "powerlens_serve_residual_energy_ratio",
        obs::Residuals::bucket_bounds(),
        "signed relative energy prediction error per scored request");
    for (const RequestOutcome& o : report_.outcomes) {
      latency_residual_hist.observe(o.latency_residual);  // NaN -> rejected
      energy_residual_hist.observe(o.energy_residual);
    }
    if (residuals_ != nullptr) {
      const obs::Residuals::DriftCounts drift = residuals_->drift_counts();
      metrics
          .gauge("powerlens_obs_residual_model_drift_count",
                 "(policy, model) series whose EWMA residual exceeds the "
                 "drift threshold")
          .set(static_cast<double>(drift.models));
      metrics
          .gauge("powerlens_obs_residual_signature_drift_count",
                 "(policy, model, plan signature) series whose EWMA "
                 "residual exceeds the drift threshold")
          .set(static_cast<double>(drift.signatures));
    }
  }

  if (s_.config_.faults.active() || s_.config_.degrade.shed_doomed) {
    metrics
        .counter("powerlens_serve_degraded_retries_total",
                 "request re-executions after fault-degraded runs")
        .inc(static_cast<double>(report_.retries));
    metrics
        .counter("powerlens_serve_degraded_fallbacks_total",
                 "requests served on the pinned fallback configuration")
        .inc(static_cast<double>(report_.fallbacks));
    metrics
        .counter("powerlens_serve_degraded_backoff_seconds_total",
                 "simulated backoff inserted before retries")
        .inc(report_.backoff_s);
    metrics
        .counter("powerlens_serve_degraded_shed_total",
                 "deadline-doomed requests shed before service")
        .inc(static_cast<double>(report_.shed));
    metrics
        .counter("powerlens_fault_injected_dvfs_failed_total",
                 "injected DVFS actuation failures seen by the server")
        .inc(static_cast<double>(report_.faults.dvfs_failed));
    metrics
        .counter("powerlens_fault_injected_thermal_events_total",
                 "injected thermal windows seen by the server")
        .inc(static_cast<double>(report_.faults.thermal_events));
  }

  obs::log_info("serve", "stream served",
                {{"policy", report_.policy},
                 {"tasks", static_cast<double>(report_.total_tasks)},
                 {"admitted", static_cast<double>(report_.admitted)},
                 {"rejected", static_cast<double>(report_.rejected)},
                 {"shed", static_cast<double>(report_.shed)},
                 {"retries", static_cast<double>(report_.retries)},
                 {"fallbacks", static_cast<double>(report_.fallbacks)},
                 {"deadline_misses",
                  static_cast<double>(report_.deadline_misses)},
                 {"energy_j", report_.energy_j},
                 {"makespan_s", report_.makespan_s}});
  return std::move(report_);
}

ServeReport Server::serve(const RequestStream& stream) {
  if (stream.num_models() != models_.size()) {
    throw std::invalid_argument(
        "Server: stream was built for a different model count");
  }
  const std::vector<Task> tasks = stream.generate();
  return serve(tasks);
}

ServeReport Server::serve(std::span<const Task> tasks) {
  double prev_arrival = 0.0;
  for (const Task& task : tasks) {
    if (task.model_index >= models_.size()) {
      throw std::invalid_argument("Server: task model_index out of range");
    }
    if (task.passes <= 0) {
      throw std::invalid_argument("Server: task passes must be positive");
    }
    if (task.arrival_s < prev_arrival) {
      throw std::invalid_argument(
          "Server: tasks must be sorted by arrival time");
    }
    prev_arrival = task.arrival_s;
  }
  if (!is_plan_policy(config_.policy) && config_.admission_capacity > 0) {
    // Rejecting a request mid-stream would fork the reactive governor's
    // history; refuse rather than silently approximate.
    throw std::invalid_argument(
        "Server: admission control requires a plan policy");
  }
  if (!is_plan_policy(config_.policy) && config_.degrade.shed_doomed) {
    // Same forking problem: a shed request would vanish from the middle of
    // the continuous reactive run.
    throw std::invalid_argument(
        "Server: shedding doomed requests requires a plan policy");
  }

  const std::uint64_t hits_before = cache_.hits();
  const std::uint64_t misses_before = cache_.misses();
  // Pre-serve plan residency, for the outcomes' plan_cold provenance. The
  // read-only probe touches neither the serving-path counters nor LRU.
  std::vector<bool> plan_resident_before;
  if (config_.policy == ServePolicy::kPowerLens && config_.use_plan_cache) {
    plan_resident_before.reserve(models_.size());
    for (const DeployedModel& m : models_) {
      plan_resident_before.push_back(cache_.lookup(m.graph.signature()) !=
                                     nullptr);
    }
  }
  marks_.clear();
  reactive_faults_ = {};
  if (obs::Journal* const journal = active_journal()) {
    // Claim this serve call's run id and stamp the run header before the
    // fold appends — (run, 0, 0) sorts ahead of every record of the run.
    run_id_ = journal->begin_run();
    obs::JsonWriter w;
    w.field("policy", policy_name(config_.policy));
    w.field("platform", platform_->name);
    w.field("tasks", static_cast<double>(tasks.size()));
    w.field("faults", config_.faults.to_string());
    journal->append(run_id_, 0, 0, "serve_begin", w.body());
  }

  Fold fold(*this, tasks.size(), hits_before, misses_before,
            plan_resident_before);
  if (!is_plan_policy(config_.policy)) {
    const std::vector<ServiceResult> services = simulate_reactive(tasks);
    fold.consume(tasks, services, 0);
    return fold.finish();
  }

  // Plan policies run in epoch chunks: simulate a chunk while folding its
  // finished prefix (which commits its residuals in task order), then let
  // the adaptation layer act on the committed snapshot before the next
  // chunk's workers spawn — the closed loop. Without adaptation the whole
  // stream is one chunk. The fold is associative over chunks by
  // construction, so folding a chunk piecewise as its results arrive gives
  // the same bytes as folding it whole.
  const std::size_t chunk =
      adapt_ != nullptr ? config_.adapt_epoch_tasks
                        : std::max<std::size_t>(tasks.size(), 1);
  for (std::size_t base = 0; base < tasks.size(); base += chunk) {
    const std::size_t n = std::min(chunk, tasks.size() - base);
    const std::span<const Task> sub = tasks.subspan(base, n);
    const std::vector<ServiceResult> services = simulate_parallel(
        sub, [&](std::size_t first, std::span<const ServiceResult> ready) {
          fold.consume(sub.subspan(first, ready.size()), ready, base + first);
        });
    if (adapt_ != nullptr) {
      // Per-model thermal/served aggregates of this epoch, harvested in
      // task order from the chunk's results (worker-count invariant).
      std::vector<AdaptController::EpochObservation> observations(
          models_.size());
      for (std::size_t i = 0; i < sub.size(); ++i) {
        AdaptController::EpochObservation& ob =
            observations[sub[i].model_index];
        ++ob.served;
        for (const AttemptRecord& a : services[i].attempts) {
          ob.thermal_events += a.faults.thermal_events;
          ob.throttled_s += a.throttled_s;
        }
      }
      AdaptController::EpochContext ctx;
      ctx.policy = policy_name(config_.policy);
      ctx.residuals = active_residuals();
      ctx.cache = &cache_;
      ctx.journal = active_journal();
      ctx.run_id = run_id_;
      ctx.last_task_id = sub.back().id;
      ctx.inter_pass_gap_s = hw::RunPolicy{}.inter_pass_gap_s;
      ctx.observations = observations;
      ctx.faults = &config_.faults;
      adapt_->on_epoch_boundary(ctx);
    }
  }
  return fold.finish();
}

std::size_t Server::warm_start_from_snapshot(const std::string& path) {
  std::size_t installed = 0;
  for (io::PlanRecord& record : io::load_plan_snapshot(path)) {
    if (cache_.preload(record.graph_signature,
                       std::make_shared<const core::OptimizationPlan>(
                           std::move(record.plan)))) {
      ++installed;
    }
  }
  return installed;
}

void ServeReport::write_json(std::ostream& os) const {
  std::string body;
  // Measured quantities go through the null-emitting formatter: a field
  // that was never measured (e.g. p99 latency when every request was
  // rejected) must surface as null, not as a perfect-looking 0.
  const auto field = [&body](std::string_view key, double v) {
    if (!body.empty()) body += ", ";
    body += '"';
    obs::append_json_escaped(body, key);
    body += "\": ";
    obs::append_json_number_or_null(body, v);
  };
  body += "\"platform\": \"";
  obs::append_json_escaped(body, platform);
  body += "\", \"policy\": \"";
  obs::append_json_escaped(body, policy);
  body += '"';
  field("total_tasks", static_cast<double>(total_tasks));
  field("admitted", static_cast<double>(admitted));
  field("rejected", static_cast<double>(rejected));
  field("shed", static_cast<double>(shed));
  field("deadline_misses", static_cast<double>(deadline_misses));
  field("energy_j", energy_j);
  field("busy_s", busy_s);
  field("makespan_s", makespan_s);
  field("images", static_cast<double>(images));
  field("dvfs_transitions", static_cast<double>(dvfs_transitions));
  field("energy_efficiency_img_per_j", energy_efficiency());
  field("latency_mean_s", latency_mean_s);
  field("latency_p50_s", latency_p50_s);
  field("latency_p99_s", latency_p99_s);
  field("latency_max_s", latency_max_s);
  field("peak_queue_depth", static_cast<double>(peak_queue_depth));
  field("plan_cache_hits", static_cast<double>(plan_cache_hits));
  field("plan_cache_misses", static_cast<double>(plan_cache_misses));
  field("retries", static_cast<double>(retries));
  field("fallbacks", static_cast<double>(fallbacks));
  field("backoff_s", backoff_s);
  field("goodput_images", static_cast<double>(goodput_images));
  field("deadline_burn_rate", deadline_burn_rate);
  field("residual_scored", static_cast<double>(residual_scored));
  field("latency_residual_mean", latency_residual_mean);
  field("energy_residual_mean", energy_residual_mean);
  field("fault_dvfs_failed", static_cast<double>(faults.dvfs_failed));
  field("fault_thermal_events", static_cast<double>(faults.thermal_events));
  field("fault_telemetry_dropped",
        static_cast<double>(faults.telemetry_dropped));
  field("fault_latency_inflated",
        static_cast<double>(faults.latency_inflated));
  os << '{' << body << "}\n";
}

}  // namespace powerlens::serve
