// Closed-loop plan adaptation: drift-triggered online re-planning with
// background model retraining (the "adaptive" in the paper's adaptive DVFS
// framework, closed over the serving layer's own observability exports).
//
// The serving loop is chunked into epochs of `epoch_tasks` requests. At
// every epoch boundary — workers joined, nothing in flight — the controller
// takes ONE committed obs::Residuals::snapshot() and, for each deployed
// model whose (policy, model) or (policy, model, plan signature) series
// crossed the drift threshold, fuses the static plan with the live signals
// of the epoch:
//
//   * the |EWMA| residual becomes a multiplicative observed/predicted
//     correction (cumulative across re-plans, since each re-plan starts
//     from the stored static base plan) that rescales the analytic cost
//     table before block frequency levels are re-picked
//     (core::PowerLens::replan_batch);
//   * thermal signals seen during the epoch (throttle events / throttled
//     seconds in the attempt telemetry) cap the re-pick at the ladder top
//     minus the fault spec's thermal_levels_off — the plan stops scheduling
//     levels the throttled hardware will refuse anyway;
//   * the re-planned plan replaces the cached entry (PlanCache::install),
//     so every subsequent request for that signature serves the corrected
//     plan and scores a collapsed residual.
//
// Background retraining (optional): every re-plan harvests per-block
// training rows (global block features -> corrected-table argmin level).
// When enough rows accumulate, a refit of the frequency decision model
// launches on a background thread against a COPY of the active bundle; the
// refitted bundle is swapped in atomically at the NEXT epoch boundary
// (workers joined, so no request ever observes a half-swapped model) and
// serves all future cold plan computations.
//
// Determinism: every decision here derives from the residual snapshot
// (recorded in the fold's task order), the epoch's ServiceResult aggregates
// (a pure function of the request stream), and the controller's own
// deterministic state. Re-planning is analytic-table math (no MLP, no
// distance phase) and refit is nn::refit (thread-count- and
// dispatch-path-invariant), so reports, journals, and residual exports stay
// byte-identical at any worker count and on either kernel dispatch path.
#pragma once

#include "serve/server.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

namespace powerlens::serve {

struct AdaptConfig {
  // Requests per serving epoch (the re-plan decision cadence).
  std::size_t epoch_tasks = 32;
  // Background decision-model retraining on harvested rows.
  bool retrain = false;
  std::size_t retrain_min_rows = 24;
  // Seeds the refit split/shuffle; every retrain round offsets it.
  std::uint64_t seed = 1;
};

class AdaptController {
 public:
  // Copies `framework` into the controller's active bundle (the original is
  // never mutated). `models` must outlive the controller (the Server owns
  // them). Throws std::invalid_argument on a zero epoch.
  AdaptController(const hw::Platform& platform,
                  std::span<const DeployedModel> models,
                  const core::PowerLens& framework, AdaptConfig config);
  // Joins any in-flight retrain thread.
  ~AdaptController();
  AdaptController(const AdaptController&) = delete;
  AdaptController& operator=(const AdaptController&) = delete;

  // The bundle serving plan computations right now. Swapped only inside
  // on_epoch_boundary(), which the server calls with all workers joined.
  const core::PowerLens& framework() const noexcept { return *active_; }

  // Per-model aggregates of one epoch, harvested from the chunk's
  // ServiceResults in task order (worker-count invariant).
  struct EpochObservation {
    std::size_t served = 0;          // admissible executions this epoch
    std::size_t thermal_events = 0;  // injected throttle windows hit
    double throttled_s = 0.0;        // simulated seconds spent throttled
  };

  struct EpochContext {
    std::string_view policy;              // residual key prefix
    const obs::Residuals* residuals = nullptr;  // may be null: no drift eval
    PlanCache* cache = nullptr;
    obs::Journal* journal = nullptr;      // may be null
    std::uint64_t run_id = 0;
    std::uint64_t last_task_id = 0;       // journal key anchor of the epoch
    double inter_pass_gap_s = 0.0;        // serving engine's per-pass idle
    std::span<const EpochObservation> observations;  // indexed by model
    const fault::FaultSpec* faults = nullptr;  // thermal cap source
  };
  // The epoch-boundary commit point; see the header comment. Called on the
  // fold thread between epochs.
  void on_epoch_boundary(const EpochContext& ctx);

  // Lifetime counters (this controller).
  std::uint64_t epochs() const noexcept { return epochs_; }
  std::uint64_t replans() const noexcept { return replans_; }
  std::uint64_t retrain_rounds() const noexcept { return retrain_rounds_; }
  std::uint64_t model_swaps() const noexcept { return model_swaps_; }

  // Wall-clock of each replan_batch call (one entry per epoch that actually
  // re-planned), also observed into the powerlens_adapt_replan_ms histogram.
  // Timing only — plan bytes are invariant to it. bench_adapt_loop reads
  // this for its p50/p95 re-plan latency report.
  std::span<const double> replan_latencies_ms() const noexcept {
    return replan_latencies_ms_;
  }

 private:
  void maybe_swap_retrained();
  void maybe_launch_retrain();

  const hw::Platform* platform_;
  std::span<const DeployedModel> models_;
  AdaptConfig config_;

  // The active model bundle. Mutated (swapped) only at epoch boundaries.
  std::shared_ptr<core::PowerLens> active_;

  // Cumulative observed/predicted corrections per model; re-plans compose
  // them against the stored static base, so repeated corrections multiply.
  std::vector<double> time_scale_;
  std::vector<double> energy_scale_;
  // The static plan each model drifted from, captured at first re-plan.
  std::vector<std::optional<core::OptimizationPlan>> base_plans_;
  // Per-model analytic cost features, extracted once at the model's first
  // re-plan and shared across every later epoch's rescaled table refill
  // (core::ReplanRequest::cost_features).
  std::vector<std::optional<hw::CostFeatures>> cost_features_;
  std::vector<double> replan_latencies_ms_;
  // Scored-sample count of the model's preferred residual series at its
  // last re-plan: a still-raised drift flag with no new samples is stale
  // evidence and must not compound the correction again.
  std::vector<std::uint64_t> scored_at_replan_;

  // Harvested decision-model rows (block features + corrected levels).
  std::vector<std::vector<double>> row_structural_;
  std::vector<std::vector<double>> row_statistics_;
  std::vector<int> row_labels_;

  // Background retrain: the thread refits `candidate_`; the swap happens at
  // the next boundary with workers joined, so no locking is needed.
  std::thread retrain_thread_;
  std::shared_ptr<core::PowerLens> candidate_;
  bool retrain_inflight_ = false;

  std::uint64_t epochs_ = 0;
  std::uint64_t replans_ = 0;
  std::uint64_t retrain_rounds_ = 0;
  std::uint64_t model_swaps_ = 0;
};

}  // namespace powerlens::serve
