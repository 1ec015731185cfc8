// Workload definitions of the end-to-end benchmark: what each named workload
// deploys, which request stream it serves, how a server is configured for it,
// and what one timed repetition ("rep") does. bench_e2e.cpp measures the reps
// and layer_replay.cpp replays the same work layer by layer; both build their
// inputs only through this header, so the two runs always see identical
// streams.
//
// Every workload is a pure function of (workload, seed): the request stream's
// order and arrival times and the fault-stream seed derive from the --seed
// argument; the deployed models (zoo, random-graph population) and the
// stream's model mix are the same for every seed.
#pragma once

#include "core/powerlens.hpp"
#include "fault/fault_spec.hpp"
#include "hw/platform.hpp"
#include "io/interchange.hpp"
#include "serve/request_stream.hpp"
#include "serve/server.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::bench::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Workload { kSteadyZoo, kColdAdmit, kFaultAdapt, kPolicySweep };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kSteadyZoo, Workload::kColdAdmit, Workload::kFaultAdapt,
    Workload::kPolicySweep};

const char* workload_name(Workload workload) noexcept;
std::optional<Workload> parse_workload(std::string_view name) noexcept;

// Images per forward pass for every deployed graph.
inline constexpr std::int64_t kBatch = 10;

// Sizes that --smoke shrinks; everything else about a workload is fixed.
struct Shape {
  std::size_t tasks = 0;          // requests one rep serves
  std::size_t outcome_tasks = 0;  // requests behind the simulated outcomes
  std::size_t random_graphs = 0;  // population beyond the zoo (cold_admit)
  std::size_t networks = 0;       // random networks the offline phase trains on
  std::size_t plan_calls = 0;     // optimize() calls per graph (plan latency)
};
Shape shape_of(Workload workload, bool smoke) noexcept;

// Host worker threads of every server (and of the offline phase): 2 on a
// host with at least 4 cores, else 1. The calling thread (dispatch, fold,
// journal) needs a core of its own, and on a shared host the rest is
// headroom: on a 4-core host, 3 workers moved throughput by 12-15% between
// identical runs and 2 workers by under 4%.
std::size_t serve_workers() noexcept;

// The offline phase's configuration: random networks to train on, dataset
// seed, epochs, and the training thread count (serve_workers()).
core::PowerLensConfig offline_config(const Shape& shape);

// Everything a run builds before timing starts. Owns the framework and the
// models; `platform` must outlive it.
struct Deployment {
  Workload workload = Workload::kSteadyZoo;
  Shape shape;
  const hw::Platform* platform = nullptr;
  std::unique_ptr<core::PowerLens> framework;
  std::vector<serve::DeployedModel> models;
  // The stream: RequestStream arrivals, passes and deadlines for
  // shape.outcome_tasks requests, with the model picks stratified into
  // blocks of one request per deployed model in seeded order.
  serve::RequestStreamConfig stream;
  std::vector<serve::Task> outcome_tasks;
  std::vector<serve::Task> tasks;  // its first shape.tasks: what a rep serves
  fault::FaultSpec faults;
  // Zoo workloads: one plan per deployed model, computed in set-up and
  // written to `snapshot_path` (steady_zoo warm-starts from the file,
  // fault_adapt and policy_sweep preload the records).
  std::vector<io::PlanRecord> plans;
  std::string snapshot_path;
};

// Replaces the model picks of a generated stream with blocks of one request
// per deployed model, each block in seeded random order (Fisher-Yates).
// Every rep then serves the same model mix for every seed, and the seed
// moves the order and the arrival times. (With independent uniform picks,
// a 160-request policy_sweep rep's throughput varied by 33% over ten seeds.)
void stratify_models(std::vector<serve::Task>& tasks, std::size_t models,
                     std::uint64_t seed);

// Trains the framework, builds the models and the stream, and writes the
// plan snapshot. Files go under `workdir`.
Deployment set_up(Workload workload, std::uint64_t seed, bool smoke,
                  const hw::Platform& platform, const std::string& workdir);

// Policies one rep serves, in order (policy_sweep serves five).
std::vector<serve::ServePolicy> rep_policies(Workload workload);

// The server configuration of one policy's serve inside a rep. `journal`
// and `residuals` are the rep's private sinks: the process-wide defaults
// would accumulate records across reps.
serve::ServerConfig server_config(const Deployment& d,
                                  serve::ServePolicy policy,
                                  std::size_t workers, obs::Journal* journal,
                                  obs::Residuals* residuals);

// Installs the set-up plans the way the workload's server would start:
// snapshot warm start (steady_zoo), preload (fault_adapt, policy_sweep), or
// nothing (cold_admit starts with an empty cache).
void warm_plans(const Deployment& d, serve::Server& server);

// The policies one rep serves and a copy of the models for each of their
// servers, made before the rep's timer starts (a Server takes its models by
// value).
struct RepInputs {
  std::vector<serve::ServePolicy> policies;
  std::vector<std::vector<serve::DeployedModel>> models;  // one per policy
};
RepInputs prepare_rep(const Deployment& d);
RepInputs prepare_rep(const Deployment& d,
                      std::vector<serve::ServePolicy> policies);

struct RepOutput {
  // Wall-clock of the timed part: server start, serve, report and exports,
  // summed over the rep's policies.
  double seconds = 0.0;
  // Report JSON, journal JSONL and residual JSON of every policy served:
  // the bytes reps must reproduce.
  std::string fingerprint;
  std::vector<serve::ServeReport> reports;  // one per policy, rep order
  // The PowerLens server's cache after the rep.
  std::vector<std::pair<std::uint64_t, serve::PlanCache::PlanPtr>>
      cached_plans;
  std::uint64_t cache_evictions = 0;
  std::uint64_t adapt_epochs = 0;
  std::uint64_t adapt_replans = 0;
  std::uint64_t adapt_retrain_rounds = 0;
  std::uint64_t adapt_model_swaps = 0;
  std::uint64_t journal_records = 0;  // all policies
  double journal_export_ms = 0.0;     // all policies
  double residuals_export_ms = 0.0;
  std::size_t tasks = 0;   // requests offered, all policies
  std::size_t failed = 0;  // rejected + shed + deadline-missed, all policies
};

// One rep: a fresh server per policy with private sinks, serving the
// deployment's stream and exporting its journal and residuals. `trace` (may
// be null) receives the plan-policy servers' per-request spans.
RepOutput run_rep(const Deployment& d, RepInputs inputs, std::size_t workers,
                  obs::TraceWriter* trace = nullptr);

// The deployment's distinct graphs (one per deployed model).
std::vector<const dnn::Graph*> distinct_graphs(const Deployment& d);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN on
// an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run prints: its metrics and the outcome of its correctness
// checks. `attempted`/`failed` count the requests the measured work offered
// and the ones rejected, shed, or past their deadline.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  // Records and prints one correctness check.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

}  // namespace powerlens::bench::e2e
