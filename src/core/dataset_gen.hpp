// Dataset generator for the model training phase (paper section 2.2).
//
// Produces the paper's two dataset groups from randomly generated networks:
//   Dataset A — whole-network global features, labelled with the index of the
//     clustering-hyperparameter configuration (from a fixed grid) whose power
//     view yields the best energy efficiency on the target platform.
//   Dataset B — per-block global features, labelled with the GPU frequency
//     level that minimizes the block's energy ("each block in the power view
//     is deployed at all frequencies to select ... optimal energy
//     efficiency").
// Ground truth comes from the analytic cost model — the simulated analogue of
// the paper's exhaustive on-device frequency sweeps — and is therefore fully
// platform-specific, which is exactly what makes retargeting PowerLens to a
// new platform an automated dataset regeneration + retrain.
#pragma once

#include "clustering/cluster.hpp"
#include "dnn/random_gen.hpp"
#include "hw/cost_table.hpp"
#include "hw/platform.hpp"
#include "nn/trainer.hpp"
#include "util/thread_pool.hpp"

#include <cstdint>
#include <vector>

namespace powerlens::core {

// The hyperparameter grid the prediction model classifies over.
struct HyperparamGrid {
  std::vector<double> eps_values = {0.04, 0.07, 0.10, 0.15, 0.22, 0.32};
  std::vector<std::size_t> min_pts_values = {2, 3, 5, 8};

  std::size_t size() const noexcept {
    return eps_values.size() * min_pts_values.size();
  }
  clustering::ClusteringHyperparams at(std::size_t index) const;
  std::size_t index_of(const clustering::ClusteringHyperparams& hp) const;
};

struct DatasetGenConfig {
  std::size_t num_networks = 400;  // the paper used 8000; tests use fewer
  std::uint64_t seed = 42;
  dnn::RandomDnnConfig dnn_config;
  clustering::DistanceParams distance;
  HyperparamGrid grid;
  std::size_t cpu_level_for_labels = 0;  // set to max at generation time
  // Offline-phase parallelism. Network n is always generated from its own
  // RNG stream (split_seed(seed, n)), so the produced datasets are byte-
  // identical for every thread count, including 1.
  util::ParallelConfig parallel;
};

struct GeneratedDatasets {
  nn::Dataset dataset_a;  // network features -> hyperparameter class
  nn::Dataset dataset_b;  // block features -> optimal frequency level
  std::size_t networks_generated = 0;
  std::size_t blocks_generated = 0;
};

// Deployment-feasibility post-processing (paper section 2.1.3: "adjusting
// size, shape, or membership of clusters"): a power block whose execution
// takes less than `min_duration_s` cannot amortize a DVFS switch — the new
// frequency would not even settle before the next preset point. Such blocks
// are merged into their preceding neighbour (following for the first).
// Durations are evaluated at the platform's middle GPU frequency on the
// maximum-CPU plane of `costs`, which must cover that plane.
clustering::PowerView enforce_min_block_duration(
    const hw::CostTable& costs, const clustering::PowerView& view,
    const hw::Platform& platform, double min_duration_s);

// Feasibility horizon for one graph: a block must outlast 1.5x the full
// switch cost, and instrumentation stays at single-digit granularity — a
// block shorter than a tenth of the pass adds a switch without adding
// control authority. `costs` must cover the maximum CPU level.
double feasible_block_duration(const hw::CostTable& costs,
                               const hw::Platform& platform);

// Steady-state cost of running one pass under `view` with each block at its
// analytic-optimal frequency, including per-switch DVFS cost. `costs` must
// cover `cpu_level`.
struct ViewEvaluation {
  double time_s = 0.0;
  double energy_j = 0.0;
  std::vector<std::size_t> block_levels;  // oracle level per block
};
ViewEvaluation evaluate_view_oracle(const hw::CostTable& costs,
                                    const clustering::PowerView& view,
                                    const hw::Platform& platform,
                                    std::size_t cpu_level);

// The exhaustive hyperparameter-grid sweep for one graph: every grid point's
// feasibility-enforced view is evaluated with evaluate_view_oracle, and
// candidates are ranked by total energy including per-switch DVFS cost.
// Tie-breaking is fully deterministic (see the implementation): among
// near-optimal candidates, the finest view wins, and equal block counts
// resolve to the lower grid index. The winner's view and evaluation come
// back with its class, so callers never cluster again. `costs` must cover
// the platform's maximum CPU level and config.cpu_level_for_labels.
struct GridSweep {
  std::size_t best_class = 0;
  clustering::PowerView view;  // the winning class's view
  ViewEvaluation eval;         // and its oracle evaluation
};
GridSweep sweep_hyperparam_grid(const dnn::Graph& graph,
                                const hw::CostTable& costs,
                                const hw::Platform& platform,
                                const DatasetGenConfig& config);

// Full generation pass (Figure 2, "dataset generator"). Networks are
// labelled in parallel on config.parallel threads; each network is one task
// with its own RNG stream and its own CostTable, and rows are concatenated
// in network order, so the output is identical for every thread count.
GeneratedDatasets generate_datasets(const hw::Platform& platform,
                                    const DatasetGenConfig& config);

}  // namespace powerlens::core
