#include "serve/adapt.hpp"

#include "features/global.hpp"
#include "hw/analytic.hpp"
#include "obs/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace powerlens::serve {

namespace {

// Adaptation records live above the per-request sequence range (request = 1,
// attempts = 2..): the epoch summary sits at 32 and re-plan records follow,
// all keyed on the epoch's last task id, so they sort after that task's
// records and before the next epoch's.
constexpr std::uint32_t kSeqAdaptEpoch = 32;

// Single-epoch correction ratios and the cumulative composition are both
// clamped: a pathological residual (e.g. a near-zero prediction) must never
// drive the rescaled cost table to a degenerate argmin.
constexpr double kMinStepScale = 0.1;
constexpr double kMaxStepScale = 10.0;
constexpr double kMinCumScale = 0.05;
constexpr double kMaxCumScale = 20.0;

double clamp_scale(double v, double lo, double hi) {
  if (!std::isfinite(v)) return 1.0;
  return std::clamp(v, lo, hi);
}

}  // namespace

AdaptController::AdaptController(const hw::Platform& platform,
                                 std::span<const DeployedModel> models,
                                 const core::PowerLens& framework,
                                 AdaptConfig config)
    : platform_(&platform),
      models_(models),
      config_(config),
      active_(std::make_shared<core::PowerLens>(framework)) {
  if (config_.epoch_tasks == 0) {
    throw std::invalid_argument("AdaptController: epoch_tasks == 0");
  }
  time_scale_.assign(models_.size(), 1.0);
  energy_scale_.assign(models_.size(), 1.0);
  base_plans_.resize(models_.size());
  cost_features_.resize(models_.size());
  scored_at_replan_.assign(models_.size(), 0);
}

AdaptController::~AdaptController() {
  if (retrain_thread_.joinable()) retrain_thread_.join();
}

void AdaptController::maybe_swap_retrained() {
  if (!retrain_inflight_) return;
  // The boundary runs with every worker joined, so blocking here until the
  // refit finishes keeps the swap epoch — and therefore every plan computed
  // afterwards — a pure function of the request stream.
  retrain_thread_.join();
  active_ = std::move(candidate_);
  candidate_.reset();
  retrain_inflight_ = false;
  ++model_swaps_;
  obs::global_metrics()
      .counter("powerlens_adapt_model_swaps_total",
               "retrained model bundles swapped in at epoch boundaries")
      .inc();
}

void AdaptController::maybe_launch_retrain() {
  if (!config_.retrain || retrain_inflight_) return;
  const std::size_t min_rows = std::max<std::size_t>(config_.retrain_min_rows,
                                                     std::size_t{10});
  if (row_labels_.size() < min_rows) return;
  if (!active_->trained()) return;

  nn::Dataset rows;
  rows.structural.reshape(row_labels_.size(), row_structural_.front().size());
  rows.statistics.reshape(row_labels_.size(), row_statistics_.front().size());
  for (std::size_t r = 0; r < row_labels_.size(); ++r) {
    for (std::size_t c = 0; c < row_structural_[r].size(); ++c) {
      rows.structural(r, c) = row_structural_[r][c];
    }
    for (std::size_t c = 0; c < row_statistics_[r].size(); ++c) {
      rows.statistics(r, c) = row_statistics_[r][c];
    }
  }
  rows.labels = row_labels_;
  row_structural_.clear();
  row_statistics_.clear();
  row_labels_.clear();

  // Short incremental schedule: the refit continues from the deployed
  // weights, so a handful of epochs over the harvested slice is the whole
  // point — anything longer would overfit the online distribution.
  nn::TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 16;
  cfg.lr = 5e-4;
  cfg.patience = 4;
  cfg.shuffle_seed = config_.seed + retrain_rounds_;
  const std::uint64_t split_seed = config_.seed + 1000 + retrain_rounds_;

  candidate_ = std::make_shared<core::PowerLens>(*active_);
  std::shared_ptr<core::PowerLens> target = candidate_;
  retrain_thread_ = std::thread([target, rows = std::move(rows), cfg,
                                 split_seed]() {
    try {
      target->refit_decision(rows, cfg, split_seed);
    } catch (const std::exception&) {
      // A failed refit leaves `target` an untouched copy of the bundle it
      // started from; swapping it in is a no-op, never a corruption.
    }
  });
  retrain_inflight_ = true;
  ++retrain_rounds_;
}

void AdaptController::on_epoch_boundary(const EpochContext& ctx) {
  ++epochs_;
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics
      .counter("powerlens_adapt_epochs_total",
               "serving adaptation epoch boundaries crossed")
      .inc();

  maybe_swap_retrained();

  struct Pending {
    std::size_t model = 0;
    double latency_ewma = 0.0;
    double energy_ewma = 0.0;
  };
  std::vector<Pending> pending;
  std::vector<core::ReplanRequest> requests;
  std::size_t drifting_models = 0;

  if (ctx.residuals != nullptr && ctx.cache != nullptr) {
    const std::vector<obs::Residuals::KeySnapshot> snap =
        ctx.residuals->snapshot();
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const obs::Residuals::KeySnapshot* model_key = nullptr;
      const obs::Residuals::KeySnapshot* sig_key = nullptr;
      for (const obs::Residuals::KeySnapshot& k : snap) {
        if (k.policy != ctx.policy || k.model != models_[m].name) continue;
        if (k.signature == 0) {
          model_key = &k;
        } else if (k.signature == models_[m].graph.signature()) {
          sig_key = &k;
        }
      }
      const bool drifting = (model_key != nullptr && model_key->drifting) ||
                            (sig_key != nullptr && sig_key->drifting);
      if (!drifting) continue;
      ++drifting_models;

      // Prefer the signature-level series: it scores only plan-served
      // requests, while the model-level series also absorbs fallen-back
      // executions whose error the re-plan cannot fix.
      const obs::Residuals::Stats* stats = nullptr;
      if (sig_key != nullptr && (sig_key->stats.latency.count > 0 ||
                                 sig_key->stats.energy.count > 0)) {
        stats = &sig_key->stats;
      } else if (model_key != nullptr) {
        stats = &model_key->stats;
      }
      if (stats == nullptr) continue;

      // Re-plan only on fresh evidence: once a correction is installed, the
      // flag stays up until the EWMA decays below threshold, and re-applying
      // the same stale EWMA every boundary would compound one observation
      // into an overshoot.
      const std::uint64_t scored =
          stats->latency.count + stats->energy.count;
      if (scored <= scored_at_replan_[m]) continue;
      scored_at_replan_[m] = scored;

      const double lat_ewma =
          stats->latency.count > 0 ? stats->latency.ewma : 0.0;
      const double eng_ewma =
          stats->energy.count > 0 ? stats->energy.ewma : 0.0;
      time_scale_[m] = clamp_scale(
          time_scale_[m] *
              clamp_scale(1.0 + lat_ewma, kMinStepScale, kMaxStepScale),
          kMinCumScale, kMaxCumScale);
      energy_scale_[m] = clamp_scale(
          energy_scale_[m] *
              clamp_scale(1.0 + eng_ewma, kMinStepScale, kMaxStepScale),
          kMinCumScale, kMaxCumScale);

      // Thermal headroom observed this epoch caps the re-pick: scheduling
      // levels the throttled ladder will strip anyway only re-creates the
      // prediction error being corrected.
      std::size_t cap = std::numeric_limits<std::size_t>::max();
      if (ctx.faults != nullptr && m < ctx.observations.size()) {
        const EpochObservation& ob = ctx.observations[m];
        if (ctx.faults->thermal_levels_off > 0 &&
            (ob.thermal_events > 0 || ob.throttled_s > 0.0)) {
          const std::size_t off =
              std::min(ctx.faults->thermal_levels_off,
                       platform_->max_gpu_level());
          cap = platform_->max_gpu_level() - off;
        }
      }

      // Corrections always compose against the STATIC plan the model
      // deployed with, captured once — composing against an already
      // corrected plan would square the scale factors.
      if (!base_plans_[m].has_value()) {
        const std::uint64_t sig = models_[m].graph.signature();
        if (PlanCache::PlanPtr cached = ctx.cache->lookup(sig)) {
          base_plans_[m] = *cached;
        } else {
          base_plans_[m] = active_->optimize(models_[m].graph);
        }
      }

      // Per-layer cost features are a pure function of (platform, graph):
      // extract once at the model's first re-plan, share every epoch after.
      if (!cost_features_[m].has_value()) {
        cost_features_[m] =
            hw::CostFeatures::extract(*platform_, models_[m].graph.layers());
      }

      core::ReplanRequest req;
      req.graph = &models_[m].graph;
      req.base = &*base_plans_[m];
      req.cost_features = &*cost_features_[m];
      req.signals.time_scale = time_scale_[m];
      req.signals.energy_scale = energy_scale_[m];
      req.signals.gpu_level_cap = cap;
      req.signals.inter_pass_gap_s = ctx.inter_pass_gap_s;
      requests.push_back(req);
      pending.push_back({m, lat_ewma, eng_ewma});
    }
  }

  std::vector<core::OptimizationPlan> plans;
  if (!requests.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    plans = active_->replan_batch(requests);
    const double replan_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    replan_latencies_ms_.push_back(replan_ms);
    metrics
        .histogram("powerlens_adapt_replan_ms",
                   obs::default_milliseconds_buckets(),
                   "wall-clock of one epoch's replan_batch call")
        .observe(replan_ms);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::size_t m = pending[i].model;
      ctx.cache->install(models_[m].graph.signature(),
                         std::make_shared<const core::OptimizationPlan>(
                             plans[i]));
      ++replans_;

      // Harvest decision-model rows: the corrected table's per-block argmin
      // is the label the offline model should have predicted under the
      // observed conditions.
      const auto& blocks = plans[i].view.blocks();
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const features::GlobalFeatures f = features::GlobalFeatureExtractor::
            extract(models_[m].graph, blocks[b].begin, blocks[b].end);
        row_structural_.push_back(f.structural);
        row_statistics_.push_back(f.statistics);
        row_labels_.push_back(static_cast<int>(plans[i].block_levels[b]));
      }
    }
    metrics
        .counter("powerlens_adapt_replans_total",
                 "drift-triggered online plan recomputations")
        .inc(static_cast<double>(plans.size()));
  }
  metrics
      .gauge("powerlens_adapt_drifting_models_count",
             "deployed models flagged drifting at the last epoch boundary")
      .set(static_cast<double>(drifting_models));

  if (ctx.journal != nullptr) {
    obs::JsonWriter w;
    w.field("epoch", static_cast<double>(epochs_));
    w.field("drifting_models", static_cast<double>(drifting_models));
    w.field("replans", static_cast<double>(plans.size()));
    w.field("model_swaps", static_cast<double>(model_swaps_));
    ctx.journal->append(ctx.run_id, ctx.last_task_id, kSeqAdaptEpoch,
                        "adapt_epoch", w.body());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const std::size_t m = pending[i].model;
      obs::JsonWriter r;
      r.field("model", models_[m].name);
      r.field("plan_signature",
              obs::hex_signature(models_[m].graph.signature()));
      r.field("time_scale", time_scale_[m]);
      r.field("energy_scale", energy_scale_[m]);
      r.field("latency_ewma", pending[i].latency_ewma);
      r.field("energy_ewma", pending[i].energy_ewma);
      if (requests[i].signals.gpu_level_cap !=
          std::numeric_limits<std::size_t>::max()) {
        r.field("gpu_level_cap",
                static_cast<double>(requests[i].signals.gpu_level_cap));
      }
      ctx.journal->append(ctx.run_id, ctx.last_task_id,
                          kSeqAdaptEpoch + 1 + static_cast<std::uint32_t>(i),
                          "adapt_replan", r.body());
    }
  }

  const std::uint64_t rounds_before = retrain_rounds_;
  maybe_launch_retrain();
  if (retrain_rounds_ > rounds_before) {
    metrics
        .counter("powerlens_adapt_retrain_rounds_total",
                 "background decision-model refits launched")
        .inc();
  }
}

}  // namespace powerlens::serve
