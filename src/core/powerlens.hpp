// PowerLens: the adaptive DVFS framework (paper section 2).
//
// Offline pipeline (Figure 2):
//   train():    random-network dataset generation -> Dataset A/B -> train the
//               clustering-hyperparameter prediction model and the target-
//               frequency decision model (80/10/10 protocol). Fully
//               automated, which is the paper's platform-portability story:
//               retargeting = regenerate + retrain, no human intervention.
//   optimize(): for a concrete DNN, 1) predict clustering hyperparameters
//               from global features, 2) cluster layers into power blocks
//               (Algorithm 1), 3) predict each block's target frequency,
//               4) emit the preset DVFS instrumentation schedule that the
//               runtime engine applies at block boundaries.
//
// Every planning entry point below, and the joint CPU+GPU oracle in
// core/extensions, composes one private staged planner (DESIGN §5k).
#pragma once

#include "clustering/cluster.hpp"
#include "core/dataset_gen.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"
#include "hw/governor.hpp"
#include "hw/platform.hpp"
#include "linalg/stats.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::core {

// A trained predictor bundling input scalers with the two-stage MLP.
class PredictionModel {
 public:
  struct FitSummary {
    double test_accuracy = 0.0;
    double test_mean_level_error = 0.0;  // classes are ordered for Dataset B
    nn::TrainReport report;
  };

  // Trains on `data` with an internal 80/10/10 split. `num_classes` is the
  // label-space size; hidden sizes come from `hidden`.
  FitSummary fit(const nn::Dataset& data, std::size_t num_classes,
                 const nn::TrainConfig& train_config, std::uint64_t seed,
                 std::size_t hidden = 64);

  bool trained() const noexcept { return mlp_.has_value(); }

  // Predicted class for one feature bundle. Throws std::logic_error if not
  // trained. The scaled feature rows and every MLP activation are leased
  // from `ws` (the serving hot path's per-worker workspace), or from a
  // call-local workspace when it is null.
  int predict(const features::GlobalFeatures& features,
              linalg::Workspace* ws = nullptr) const;

  // .plbin encoding of a trained predictor: the structural scaler, the
  // statistics scaler, then the MLP. encode() throws std::logic_error
  // before fit(). decode() throws io::MalformedError when a scaler's length
  // is not its MLP input's dimension.
  void encode(io::Writer& w) const;
  static PredictionModel decode(io::Cursor& c);

  // Throws io::MalformedError naming `what` unless the trained MLP takes
  // `structural_dim` + `statistics_dim` features and predicts
  // `num_classes` classes.
  void expect_shape(std::size_t structural_dim, std::size_t statistics_dim,
                    std::size_t num_classes, const char* what) const;

  // Incremental online refit: continues training the MLP from its current
  // weights on freshly harvested rows, with the input scalers FROZEN (they
  // summarize the offline distribution; refitting them on a narrow online
  // slice would silently re-scale every future feature). Deterministic for
  // a given (model state, rows, config, seed). Throws std::logic_error
  // before fit().
  nn::TrainReport refit(const nn::Dataset& rows,
                        const nn::TrainConfig& config, std::uint64_t seed);

 private:
  linalg::StandardScaler scaler_structural_;
  linalg::StandardScaler scaler_statistics_;
  std::optional<nn::TwoStageMlp> mlp_;
};

// A trained model pair as it crosses a process boundary: one checksummed
// io::RecordType::kModelBundle record holding the platform name, the
// hyperparameter model and the decision model.
struct ModelBundle {
  std::string platform;
  PredictionModel hyper;
  PredictionModel decision;
};

std::vector<std::byte> encode_model_bundle(std::string_view platform,
                                           const PredictionModel& hyper,
                                           const PredictionModel& decision);
// Validates the record (io::parse_record) and decodes the pair; every
// malformed input fails with an io::Error. Checks nothing against a
// framework — PowerLens::load_models does that.
ModelBundle decode_model_bundle(std::span<const std::byte> record);

struct PowerLensConfig {
  DatasetGenConfig dataset;
  nn::TrainConfig train_hyper;     // clustering-hyperparameter model
  nn::TrainConfig train_decision;  // target-frequency decision model
  std::size_t hidden_units = 64;
  std::uint64_t model_seed = 11;
  // Offline-phase thread count; propagated at construction into any of the
  // sub-configs above that are still on "auto" (num_threads == 0). Results
  // are invariant to the value — it only changes wall-clock.
  util::ParallelConfig parallel;
};

struct TrainingSummary {
  std::size_t networks = 0;
  std::size_t blocks = 0;
  PredictionModel::FitSummary hyper_model;
  PredictionModel::FitSummary decision_model;
};

struct OptimizationPlan {
  clustering::ClusteringHyperparams hyper;
  clustering::PowerView view;
  std::vector<std::size_t> block_levels;  // one GPU level per block
  hw::PresetSchedule schedule;
  // Static per-pass cost prediction for `schedule` (hw::schedule_cost from
  // MAXN initial levels, the serving boot state): the lag-free time/energy
  // the plan promises per forward pass. The serving layer scores simulated
  // actuals against these (obs::Residuals); 0 means "not computed" (plans
  // assembled by hand).
  double predicted_pass_time_s = 0.0;
  double predicted_pass_energy_j = 0.0;

  // Field-exact equality — the PlanCache's hit-equals-fresh-plan invariant.
  bool operator==(const OptimizationPlan&) const noexcept = default;
};

// Live-signal fusion inputs for one online re-plan (serve/adapt): the
// multiplicative corrections the residual loop learned for a (policy,
// model) key, plus the thermal frequency headroom observed this epoch.
struct AdaptSignals {
  // observed/predicted ratios (1 + residual EWMA); must be finite and
  // positive. They rescale the analytic cost table before levels re-pick,
  // and they correct the re-planned prediction itself.
  double time_scale = 1.0;
  double energy_scale = 1.0;
  // Highest GPU level the re-plan may schedule (thermal cap); SIZE_MAX =
  // unconstrained. Clamped to the platform ladder.
  std::size_t gpu_level_cap = std::numeric_limits<std::size_t>::max();
  // The serving engine's inter-pass idle gap: observed request time includes
  // it, per-pass predictions do not, so the time correction must spill onto
  // it for the corrected prediction to collapse a total-time residual.
  double inter_pass_gap_s = 0.0;
};

// One drifting plan to recompute: the static plan fused with live signals.
struct ReplanRequest {
  const dnn::Graph* graph = nullptr;
  const OptimizationPlan* base = nullptr;  // the plan being corrected
  AdaptSignals signals;
  // Optional pre-extracted per-layer cost features for `graph` on the
  // engine's platform (hw::CostFeatures::extract). The adaptation loop
  // re-plans the same models every epoch; passing the cached features skips
  // the per-layer model re-derivation in the rescaled cost-table refill.
  // Null means extract on the fly — results are bitwise identical either
  // way.
  const hw::CostFeatures* cost_features = nullptr;
};

struct JointPlan;  // core/extensions.hpp

class PowerLens {
 public:
  // Keeps a reference to `platform`, which must outlive the framework; a
  // temporary would dangle, so rvalues are rejected at compile time.
  explicit PowerLens(const hw::Platform& platform, PowerLensConfig config = {});
  PowerLens(const hw::Platform&&, PowerLensConfig = {}) = delete;

  // Full offline model-training phase. Must be called before optimize().
  TrainingSummary train();

  bool trained() const noexcept;

  // Model-driven optimization of one DNN (workflow steps 1-5 of section
  // 2.1.1). Throws std::logic_error before train(). A non-null `ws` is
  // threaded through every dense computation (feature scaling, MLP
  // inference, the clustering distance pipeline), so a warmed-up per-worker
  // workspace makes repeated plan computation allocation-free in the matrix
  // hot loops.
  OptimizationPlan optimize(const dnn::Graph& graph,
                            linalg::Workspace* ws = nullptr) const;

  // optimize() over many graphs, in order: plans[i] is optimize(*graphs[i],
  // ws). Throws std::logic_error before train(), whatever the input.
  std::vector<OptimizationPlan> optimize_batch(
      std::span<const dnn::Graph* const> graphs,
      linalg::Workspace* ws = nullptr) const;

  // Analytic upper bound: the same pipeline but with exhaustive-sweep ground
  // truth in place of both models (dataset-generation labelling rules). The
  // grid sweep's winning view is the plan's view; nothing is clustered twice.
  OptimizationPlan optimize_oracle(const dnn::Graph& graph) const;

  // Online re-planning (the serving adaptation loop): for each request,
  // keeps the base plan's power-view partition (re-clustering online would
  // discard the offline similarity structure for no observed reason — the
  // drift signal is about COST, not block shape) and re-picks each block's
  // GPU level as the energy argmin of the analytic cost table rescaled by
  // the request's observed/predicted correction factors, capped at
  // signals.gpu_level_cap. The emitted plan's predicted per-pass cost is
  // the corrected prediction (new schedule's analytic cost x the scale
  // factors, gap spill included), so a request served by the re-plan under
  // unchanged fault pressure scores a near-zero residual. Analytic-table
  // math only — no MLP inference, no distance phase — so results are
  // identical on every kernel dispatch path and need no trained models.
  // Throws std::invalid_argument on null graph/base or bad signals.
  std::vector<OptimizationPlan> replan_batch(
      std::span<const ReplanRequest> requests) const;

  // Background-retrain entry point: incremental refit of the per-block
  // frequency decision model on rows harvested from served traffic (frozen
  // scalers, weights continue — see PredictionModel::refit). Throws
  // std::logic_error before train().
  nn::TrainReport refit_decision(const nn::Dataset& rows,
                                 const nn::TrainConfig& config,
                                 std::uint64_t seed);

  // Persists / restores the trained model pair as a model-bundle record,
  // so deployments skip the offline phase. save_models throws
  // std::logic_error if untrained. load_models throws std::runtime_error
  // when the file cannot be read, an io::Error on a malformed record, and
  // io::MalformedError when the bundle does not fit this framework: another
  // platform, a class count other than the hyperparameter grid's size or
  // the platform's GPU level count, or input dimensions other than
  // features::kStructuralDim / kStatisticsDim.
  void save_models(const std::string& path) const;
  void load_models(const std::string& path);

  // Frequency decisions + schedule for an externally supplied power view;
  // shared by the P-R / P-N ablations so only the partitioning differs.
  OptimizationPlan plan_for_view(const dnn::Graph& graph,
                                 clustering::PowerView view,
                                 bool use_oracle = false,
                                 linalg::Workspace* ws = nullptr) const;

  const hw::Platform& platform() const noexcept { return *platform_; }
  const PowerLensConfig& config() const noexcept { return config_; }

 private:
  // One choice per stage of the staged planner (DESIGN §5k tabulates what
  // each entry point composes). The oracle sweep also settles the view, the
  // cost argmin applies `signals` when set, and the joint argmin also emits
  // CPU presets.
  struct PlanSpec {
    enum class Hyper { kLearned, kOracleSweep, kGiven };
    enum class View { kClustered, kGiven };
    enum class Levels { kLearned, kCostArgmin, kJointArgmin };
    Hyper hyper_stage = Hyper::kLearned;
    View view_stage = View::kClustered;
    Levels level_stage = Levels::kLearned;
    clustering::ClusteringHyperparams hyper{};
    clustering::PowerView view{};
    const AdaptSignals* signals = nullptr;
    const hw::CostFeatures* cost_features = nullptr;
    bool record_phases = false;  // observe powerlens_plan_phase_*_ms
  };

  OptimizationPlan plan(const dnn::Graph& graph, PlanSpec spec,
                        linalg::Workspace* ws) const;

  friend JointPlan optimize_joint_oracle(const dnn::Graph& graph,
                                         const hw::Platform& platform,
                                         const DatasetGenConfig& config);

  const hw::Platform* platform_;  // non-owning
  PowerLensConfig config_;
  PredictionModel hyper_model_;
  PredictionModel decision_model_;
};

}  // namespace powerlens::core
