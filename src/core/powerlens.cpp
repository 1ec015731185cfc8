#include "core/powerlens.hpp"

#include "features/depthwise.hpp"
#include "hw/analytic.hpp"
#include "hw/cost_table.hpp"
#include "io/binary.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace powerlens::core {

namespace {

// The five plan-compute phases, each feeding one
// powerlens_plan_phase_*_ms histogram. observe_phase is the only place
// they are observed; the handles are function-local statics so the hot path
// never touches the registry mutex.
enum class Phase { kPredict, kCostTable, kDistance, kCluster, kDecide };

void observe_phase(Phase phase, double ms) {
  static const std::array<obs::Histogram*, 5> hists = [] {
    obs::MetricsRegistry& m = obs::global_metrics();
    const std::span<const double> buckets =
        obs::default_milliseconds_buckets();
    return std::array<obs::Histogram*, 5>{
        &m.histogram("powerlens_plan_phase_predict_ms", buckets,
                     "plan compute: global features + hyperparameter "
                     "prediction"),
        &m.histogram("powerlens_plan_phase_cost_table_ms", buckets,
                     "plan compute: analytic cost-table fill"),
        &m.histogram("powerlens_plan_phase_distance_ms", buckets,
                     "plan compute: depthwise features + power-distance "
                     "blend"),
        &m.histogram("powerlens_plan_phase_cluster_ms", buckets,
                     "plan compute: DBSCAN + contiguity and feasibility "
                     "postprocess"),
        &m.histogram("powerlens_plan_phase_decide_ms", buckets,
                     "plan compute: per-block frequency decisions + "
                     "schedule emission")};
  }();
  hists[static_cast<std::size_t>(phase)]->observe(ms);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Times one phase from construction to destruction when `enabled`; a
// disabled timer reads no clock.
class PhaseTimer {
 public:
  PhaseTimer(Phase phase, bool enabled)
      : phase_(phase),
        enabled_(enabled),
        start_(enabled ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
  ~PhaseTimer() {
    if (enabled_) observe_phase(phase_, ms_since(start_));
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

PredictionModel::FitSummary PredictionModel::fit(
    const nn::Dataset& data, std::size_t num_classes,
    const nn::TrainConfig& train_config, std::uint64_t seed,
    std::size_t hidden) {
  data.validate();
  if (data.size() < 10) {
    throw std::invalid_argument("PredictionModel::fit: dataset too small");
  }

  scaler_structural_.fit(data.structural);
  scaler_statistics_.fit(data.statistics);
  nn::Dataset scaled{scaler_structural_.transform(data.structural),
                     scaler_statistics_.transform(data.statistics),
                     data.labels};

  const nn::DatasetSplit split = nn::split_dataset(scaled, seed);

  nn::TwoStageMlpConfig mc;
  mc.structural_dim = data.structural.cols();
  mc.statistics_dim = data.statistics.cols();
  mc.hidden1 = hidden;
  mc.hidden2 = hidden;
  mc.hidden3 = hidden;
  mc.num_classes = num_classes;
  mc.seed = seed;
  mlp_.emplace(mc);

  FitSummary s;
  s.report = nn::train(*mlp_, split.train, split.val, train_config);
  s.test_accuracy = nn::accuracy(*mlp_, split.test);
  s.test_mean_level_error = nn::mean_level_error(*mlp_, split.test);
  return s;
}

int PredictionModel::predict(const features::GlobalFeatures& features,
                             linalg::Workspace* ws) const {
  if (!trained()) {
    throw std::logic_error("PredictionModel: predict before fit");
  }
  // Lease the two feature rows, scale them in place (transform_into is
  // elementwise, so aliasing input and output is fine), and run the
  // single-sample MLP forward on leased activations. A local workspace
  // stands in when the caller passed none (provenance never changes values).
  linalg::Workspace local_ws;
  linalg::Workspace& w = ws != nullptr ? *ws : local_ws;
  linalg::Workspace::Lease xs = w.lease(1, features.structural.size());
  linalg::Workspace::Lease xt = w.lease(1, features.statistics.size());
  std::copy(features.structural.begin(), features.structural.end(),
            xs->data().begin());
  std::copy(features.statistics.begin(), features.statistics.end(),
            xt->data().begin());
  scaler_structural_.transform_into(*xs, *xs);
  scaler_statistics_.transform_into(*xt, *xt);
  return mlp_->predict_one(*xs, *xt, w);
}

void PredictionModel::encode(io::Writer& w) const {
  if (!trained()) {
    throw std::logic_error("PredictionModel: encode before fit");
  }
  scaler_structural_.encode(w);
  scaler_statistics_.encode(w);
  mlp_->encode(w);
}

nn::TrainReport PredictionModel::refit(const nn::Dataset& rows,
                                       const nn::TrainConfig& config,
                                       std::uint64_t seed) {
  if (!trained()) {
    throw std::logic_error("PredictionModel: refit before fit");
  }
  rows.validate();
  const nn::Dataset scaled{scaler_structural_.transform(rows.structural),
                           scaler_statistics_.transform(rows.statistics),
                           rows.labels};
  return nn::refit(*mlp_, scaled, config, seed);
}

PredictionModel PredictionModel::decode(io::Cursor& c) {
  PredictionModel m;
  m.scaler_structural_ = linalg::StandardScaler::decode(c);
  m.scaler_statistics_ = linalg::StandardScaler::decode(c);
  m.mlp_.emplace(nn::TwoStageMlp::decode(c));
  if (m.scaler_structural_.means().size() != m.mlp_->config().structural_dim ||
      m.scaler_statistics_.means().size() != m.mlp_->config().statistics_dim) {
    throw io::MalformedError("PredictionModel: scaler length is not the MLP "
                             "input dimension");
  }
  return m;
}

void PredictionModel::expect_shape(std::size_t structural_dim,
                                   std::size_t statistics_dim,
                                   std::size_t num_classes,
                                   const char* what) const {
  const nn::TwoStageMlpConfig& c = mlp_->config();
  if (c.structural_dim != structural_dim ||
      c.statistics_dim != statistics_dim) {
    throw io::MalformedError(
        std::string(what) + " takes " + std::to_string(c.structural_dim) +
        "+" + std::to_string(c.statistics_dim) + " features, not " +
        std::to_string(structural_dim) + "+" + std::to_string(statistics_dim));
  }
  if (c.num_classes != num_classes) {
    throw io::MalformedError(std::string(what) + " predicts " +
                             std::to_string(c.num_classes) +
                             " classes, not " + std::to_string(num_classes));
  }
}

std::vector<std::byte> encode_model_bundle(std::string_view platform,
                                           const PredictionModel& hyper,
                                           const PredictionModel& decision) {
  io::Writer w;
  w.str(platform);
  hyper.encode(w);
  decision.encode(w);
  return io::frame_record(io::RecordType::kModelBundle, w.take());
}

ModelBundle decode_model_bundle(std::span<const std::byte> record) {
  io::Cursor c(io::parse_record(record, io::RecordType::kModelBundle).payload);
  ModelBundle b{c.str(), PredictionModel::decode(c),
                PredictionModel::decode(c)};
  c.expect_done("model bundle");
  return b;
}

PowerLens::PowerLens(const hw::Platform& platform, PowerLensConfig config)
    : platform_(&platform), config_(std::move(config)) {
  platform.validate();
  if (config_.dataset.cpu_level_for_labels == 0) {
    config_.dataset.cpu_level_for_labels = platform.max_cpu_level();
  }
  // One knob drives the whole offline phase unless a sub-config overrides.
  for (util::ParallelConfig* sub :
       {&config_.dataset.parallel, &config_.train_hyper.parallel,
        &config_.train_decision.parallel}) {
    if (sub->num_threads == 0) *sub = config_.parallel;
  }
}

bool PowerLens::trained() const noexcept {
  return hyper_model_.trained() && decision_model_.trained();
}

TrainingSummary PowerLens::train() {
  obs::TraceWriter& tw = obs::default_trace();
  obs::ScopedSpan train_span(tw, "powerlens_train", "pipeline");
  const GeneratedDatasets data = generate_datasets(*platform_, config_.dataset);

  TrainingSummary s;
  s.networks = data.networks_generated;
  s.blocks = data.blocks_generated;
  {
    obs::ScopedSpan span(tw, "fit_hyper_model", "pipeline");
    s.hyper_model =
        hyper_model_.fit(data.dataset_a, config_.dataset.grid.size(),
                         config_.train_hyper, config_.model_seed,
                         config_.hidden_units);
  }
  {
    obs::ScopedSpan span(tw, "fit_decision_model", "pipeline");
    s.decision_model =
        decision_model_.fit(data.dataset_b, platform_->gpu_levels(),
                            config_.train_decision, config_.model_seed + 1,
                            config_.hidden_units);
  }
  obs::log_info(
      "powerlens", "offline training complete",
      {{"networks", static_cast<double>(s.networks)},
       {"blocks", static_cast<double>(s.blocks)},
       {"hyper_test_acc", s.hyper_model.test_accuracy},
       {"decision_test_acc", s.decision_model.test_accuracy}});
  return s;
}

OptimizationPlan PowerLens::plan(const dnn::Graph& graph, PlanSpec spec,
                                 linalg::Workspace* ws) const {
  using S = PlanSpec;
  const bool sweep = spec.hyper_stage == S::Hyper::kOracleSweep;
  if ((spec.hyper_stage == S::Hyper::kLearned ||
       spec.level_stage == S::Levels::kLearned) &&
      !trained()) {
    throw std::logic_error("PowerLens: optimize before train");
  }
  obs::TraceWriter& tw = obs::default_trace();
  const bool record = spec.record_phases;
  const std::size_t label_cpu = config_.dataset.cpu_level_for_labels;

  // The one cost table, with the CPU planes its stages read: the sweep and
  // feasibility read the maximum plane, the argmin the labelling plane, the
  // product argmin every plane. A given view with learned levels needs none.
  std::vector<std::size_t> planes;
  if (spec.level_stage == S::Levels::kJointArgmin) {
    planes.resize(platform_->cpu_levels());
    std::iota(planes.begin(), planes.end(), std::size_t{0});
  }
  if (sweep || spec.view_stage != S::View::kGiven) {
    planes.push_back(platform_->max_cpu_level());
  }
  if (sweep || spec.level_stage == S::Levels::kCostArgmin) {
    planes.push_back(label_cpu);
  }
  std::optional<hw::CostTable> costs;
  if (!planes.empty()) {
    const PhaseTimer timer(Phase::kCostTable, record);
    costs = spec.cost_features != nullptr
                ? hw::CostTable(*platform_, *spec.cost_features, planes)
                : hw::CostTable(*platform_, graph.layers(), planes);
    if (spec.signals != nullptr) {
      costs = costs->scaled(spec.signals->time_scale,
                            spec.signals->energy_scale);
    }
  }

  // Stage 1: hyperparameters. The sweep also settles the view.
  OptimizationPlan plan;
  plan.hyper = spec.hyper;
  if (spec.hyper_stage == S::Hyper::kLearned) {
    obs::ScopedSpan span(tw, "predict_hyper", "pipeline");
    const PhaseTimer timer(Phase::kPredict, record);
    const int cls = hyper_model_.predict(
        features::GlobalFeatureExtractor::extract(graph), ws);
    plan.hyper = config_.dataset.grid.at(static_cast<std::size_t>(cls));
  } else if (sweep) {
    GridSweep winner =
        sweep_hyperparam_grid(graph, *costs, *platform_, config_.dataset);
    plan.hyper = config_.dataset.grid.at(winner.best_class);
    spec.view = std::move(winner.view);
  }

  // Stage 2: the power view, post-processed to deployment-feasible block
  // durations. eps is known here, so the distance pipeline emits the
  // ε-adjacency inside its own sweeps and DBSCAN runs on CSR neighbor lists.
  if (sweep || spec.view_stage == S::View::kGiven) {
    if (spec.view.num_layers() != graph.size()) {
      throw std::invalid_argument("PowerLens: view does not match graph");
    }
    plan.view = std::move(spec.view);
  } else {
    obs::ScopedSpan span(tw, "cluster_and_postprocess", "pipeline");
    // A local workspace stands in when the caller passed none (buffer
    // provenance never changes values).
    linalg::Workspace local_ws;
    linalg::Workspace& plan_ws = ws != nullptr ? *ws : local_ws;
    const linalg::Matrix table =
        features::DepthwiseFeatureExtractor::extract(graph);
    linalg::Workspace::Lease dist = plan_ws.lease(0, 0);
    clustering::EpsAdjacency adj;
    {
      const PhaseTimer timer(Phase::kDistance, record);
      clustering::power_distances_adj_into(table, config_.dataset.distance,
                                           plan.hyper.eps, plan_ws, *dist,
                                           adj);
    }
    const PhaseTimer timer(Phase::kCluster, record);
    plan.view = enforce_min_block_duration(
        *costs,
        clustering::build_power_view_from_adjacency(*dist, adj, plan.hyper),
        *platform_, feasible_block_duration(*costs, *platform_));
  }

  // Stage 3: one level per block and the preset schedule.
  obs::ScopedSpan span(tw, "decide_levels", "pipeline");
  const PhaseTimer timer(Phase::kDecide, record);
  for (const clustering::PowerBlock& b : plan.view.blocks()) {
    std::size_t gpu = 0;
    if (spec.level_stage == S::Levels::kLearned) {
      const int level = decision_model_.predict(
          features::GlobalFeatureExtractor::extract(graph, b.begin, b.end),
          ws);
      if (level < 0 ||
          static_cast<std::size_t>(level) >= platform_->gpu_levels()) {
        throw std::logic_error("PowerLens: decision model emitted a bad level");
      }
      gpu = static_cast<std::size_t>(level);
    } else if (spec.level_stage == S::Levels::kCostArgmin) {
      gpu = costs->optimal_gpu_level(
          b.begin, b.end, label_cpu,
          spec.signals != nullptr ? spec.signals->gpu_level_cap
                                  : platform_->max_gpu_level());
    } else {
      // CPU-major with strict <, so exact ties keep the lowest pair.
      std::size_t best_cpu = 0;
      double best_energy = -1.0;
      for (std::size_t cpu = 0; cpu < platform_->cpu_levels(); ++cpu) {
        for (std::size_t g = 0; g < platform_->gpu_levels(); ++g) {
          const double e = costs->block_cost(b.begin, b.end, g, cpu).energy_j;
          if (best_energy < 0.0 || e < best_energy) {
            best_energy = e;
            gpu = g;
            best_cpu = cpu;
          }
        }
      }
      plan.schedule.cpu_points.push_back({b.begin, best_cpu});
    }
    plan.block_levels.push_back(gpu);
    plan.schedule.points.push_back({b.begin, gpu});
  }

  // The predicted per-pass cost stays on schedule_cost from MAXN initial
  // levels (the serving boot state): block sums read as prefix differences
  // from the table would move its bits.
  const hw::BlockCost cost = hw::schedule_cost(
      *platform_, graph.layers(), plan.schedule, platform_->max_gpu_level(),
      platform_->max_cpu_level());
  plan.predicted_pass_time_s = cost.time_s;
  plan.predicted_pass_energy_j = cost.energy_j;
  if (spec.signals != nullptr) {
    // Corrected prediction: observed request time is
    // passes * (actual_pass + gap) with the gap an uncorrectable idle, so
    // the time correction spills its excess onto the gap:
    //   passes * (raw*s + gap*(s-1) + gap) = s * passes * (raw + gap),
    // which is exactly (1 + ewma) x the uncorrected total — the residual
    // the EWMA measured collapses to ~0 under unchanged fault pressure.
    const AdaptSignals& sig = *spec.signals;
    plan.predicted_pass_time_s = plan.predicted_pass_time_s * sig.time_scale +
                                 sig.inter_pass_gap_s * (sig.time_scale - 1.0);
    plan.predicted_pass_energy_j *= sig.energy_scale;
  }
  return plan;
}

OptimizationPlan PowerLens::plan_for_view(const dnn::Graph& graph,
                                          clustering::PowerView view,
                                          bool use_oracle,
                                          linalg::Workspace* ws) const {
  PlanSpec spec{.hyper_stage = PlanSpec::Hyper::kGiven,
                .view_stage = PlanSpec::View::kGiven,
                .level_stage = use_oracle ? PlanSpec::Levels::kCostArgmin
                                          : PlanSpec::Levels::kLearned,
                .view = std::move(view)};
  return plan(graph, std::move(spec), ws);
}

OptimizationPlan PowerLens::optimize(const dnn::Graph& graph,
                                     linalg::Workspace* ws) const {
  obs::ScopedSpan span(
      obs::default_trace(), "powerlens_optimize", "pipeline",
      {obs::TraceArg::num("layers", static_cast<double>(graph.size()))});
  OptimizationPlan plan = this->plan(graph, {.record_phases = true}, ws);
  obs::log_debug(
      "powerlens", "optimized graph",
      {{"layers", static_cast<double>(graph.size())},
       {"blocks", static_cast<double>(plan.view.block_count())}});
  return plan;
}

std::vector<OptimizationPlan> PowerLens::optimize_batch(
    std::span<const dnn::Graph* const> graphs, linalg::Workspace* ws) const {
  if (!trained()) {
    throw std::logic_error("PowerLens: optimize before train");
  }
  std::vector<OptimizationPlan> plans;
  plans.reserve(graphs.size());
  for (const dnn::Graph* g : graphs) plans.push_back(optimize(*g, ws));
  return plans;
}

OptimizationPlan PowerLens::optimize_oracle(const dnn::Graph& graph) const {
  return plan(graph,
              {.hyper_stage = PlanSpec::Hyper::kOracleSweep,
               .level_stage = PlanSpec::Levels::kCostArgmin},
              nullptr);
}

std::vector<OptimizationPlan> PowerLens::replan_batch(
    std::span<const ReplanRequest> requests) const {
  std::vector<OptimizationPlan> plans;
  if (requests.empty()) return plans;
  obs::ScopedSpan span(
      obs::default_trace(), "powerlens_replan_batch", "pipeline",
      {obs::TraceArg::num("plans", static_cast<double>(requests.size()))});

  for (const ReplanRequest& req : requests) {
    if (req.graph == nullptr || req.base == nullptr) {
      throw std::invalid_argument("PowerLens: replan with null graph or plan");
    }
    const AdaptSignals& sig = req.signals;
    if (!std::isfinite(sig.time_scale) || sig.time_scale <= 0.0 ||
        !std::isfinite(sig.energy_scale) || sig.energy_scale <= 0.0 ||
        !std::isfinite(sig.inter_pass_gap_s) || sig.inter_pass_gap_s < 0.0) {
      throw std::invalid_argument("PowerLens: bad adapt signals");
    }
    // The base plan's partition is kept (the drift signal is about cost,
    // not block shape) and its levels re-picked on the labelling plane, so
    // an all-ones correction reproduces the oracle's choices.
    plans.push_back(plan(*req.graph,
                         {.hyper_stage = PlanSpec::Hyper::kGiven,
                          .view_stage = PlanSpec::View::kGiven,
                          .level_stage = PlanSpec::Levels::kCostArgmin,
                          .hyper = req.base->hyper,
                          .view = req.base->view,
                          .signals = &sig,
                          .cost_features = req.cost_features},
                         nullptr));
  }
  obs::log_debug("powerlens", "replanned batch",
                 {{"plans", static_cast<double>(plans.size())}});
  return plans;
}

nn::TrainReport PowerLens::refit_decision(const nn::Dataset& rows,
                                          const nn::TrainConfig& config,
                                          std::uint64_t seed) {
  if (!trained()) {
    throw std::logic_error("PowerLens: refit before train");
  }
  return decision_model_.refit(rows, config, seed);
}

void PowerLens::save_models(const std::string& path) const {
  if (!trained()) {
    throw std::logic_error("PowerLens: save_models before train");
  }
  io::write_file(path, encode_model_bundle(platform_->name, hyper_model_,
                                           decision_model_));
}

void PowerLens::load_models(const std::string& path) {
  ModelBundle b = decode_model_bundle(io::read_file(path));
  if (b.platform != platform_->name) {
    throw io::MalformedError("model bundle was trained for platform '" +
                             b.platform + "', not '" + platform_->name + "'");
  }
  b.hyper.expect_shape(features::kStructuralDim, features::kStatisticsDim,
                       config_.dataset.grid.size(), "hyperparameter model");
  b.decision.expect_shape(features::kStructuralDim, features::kStatisticsDim,
                          platform_->gpu_levels(), "decision model");
  hyper_model_ = std::move(b.hyper);
  decision_model_ = std::move(b.decision);
}

}  // namespace powerlens::core
