#include "core/dataset_gen.hpp"

#include "features/depthwise.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"
#include "hw/power_model.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace powerlens::core {

clustering::ClusteringHyperparams HyperparamGrid::at(std::size_t index) const {
  if (index >= size()) {
    throw std::out_of_range("HyperparamGrid::at: index out of range");
  }
  const std::size_t ei = index / min_pts_values.size();
  const std::size_t mi = index % min_pts_values.size();
  return {eps_values[ei], min_pts_values[mi]};
}

std::size_t HyperparamGrid::index_of(
    const clustering::ClusteringHyperparams& hp) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if (at(i) == hp) return i;
  }
  throw std::invalid_argument("HyperparamGrid::index_of: not a grid point");
}

double feasible_block_duration(const hw::CostTable& costs,
                               const hw::Platform& platform) {
  const double switch_floor =
      1.5 * (platform.dvfs.latency_s + platform.dvfs.stall_s);
  const double pass_time =
      costs
          .block_cost(0, costs.num_layers(), platform.gpu_levels() / 2,
                      platform.max_cpu_level())
          .time_s;
  return std::max(switch_floor, pass_time / 10.0);
}

clustering::PowerView enforce_min_block_duration(
    const hw::CostTable& costs, const clustering::PowerView& view,
    const hw::Platform& platform, double min_duration_s) {
  if (view.num_layers() != costs.num_layers()) {
    throw std::invalid_argument(
        "enforce_min_block_duration: view does not match graph");
  }
  const std::size_t mid_level = platform.gpu_levels() / 2;
  const std::size_t cpu = platform.max_cpu_level();

  std::vector<clustering::PowerBlock> blocks(view.blocks());
  auto duration = [&](const clustering::PowerBlock& b) {
    return costs.block_cost(b.begin, b.end, mid_level, cpu).time_s;
  };
  bool changed = true;
  while (changed && blocks.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (duration(blocks[i]) >= min_duration_s) continue;
      const std::size_t target = i == 0 ? 1 : i - 1;
      const std::size_t lo = std::min(i, target);
      blocks[lo].end = blocks[std::max(i, target)].end;
      blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(lo) + 1);
      changed = true;
      break;
    }
  }
  return clustering::PowerView(std::move(blocks), view.num_layers());
}

ViewEvaluation evaluate_view_oracle(const hw::CostTable& costs,
                                    const clustering::PowerView& view,
                                    const hw::Platform& platform,
                                    std::size_t cpu_level) {
  if (view.num_layers() != costs.num_layers()) {
    throw std::invalid_argument(
        "evaluate_view_oracle: view does not match graph");
  }
  ViewEvaluation ev;
  const hw::PowerModel power(platform);
  std::size_t prev_level = platform.max_gpu_level();  // MAXN start

  for (const clustering::PowerBlock& b : view.blocks()) {
    const std::size_t level = costs.optimal_gpu_level(b.begin, b.end,
                                                      cpu_level);
    ev.block_levels.push_back(level);

    const hw::BlockCost cost = costs.block_cost(b.begin, b.end, level,
                                                cpu_level);
    ev.time_s += cost.time_s;
    ev.energy_j += cost.energy_j;

    // DVFS switch at the block boundary (steady state repeats every pass):
    //  - the host stall while the driver call blocks, and
    //  - the settle latency, during which the block still runs at the
    //    previous level. Modelled as an energy penalty proportional to the
    //    power gap for min(latency, block duration) — this is what makes
    //    fine-grained views lose on short passes, where a requested
    //    frequency never takes effect before the next preset point.
    if (level != prev_level) {
      const double stall_power = power.total_w_at(
          prev_level, cpu_level, hw::ActivityState{0.0, 0.0, 0.2});
      ev.time_s += platform.dvfs.stall_s;
      ev.energy_j += stall_power * platform.dvfs.stall_s;

      const double act = 0.7;  // representative block activity
      const double p_prev = power.total_w_at(
          prev_level, cpu_level, hw::ActivityState{act, act, 0.2});
      const double p_target = power.total_w_at(
          level, cpu_level, hw::ActivityState{act, act, 0.2});
      const double settle =
          std::min(platform.dvfs.latency_s, cost.time_s);
      ev.energy_j += std::abs(p_prev - p_target) * settle;
    }
    prev_level = level;
  }
  return ev;
}

GridSweep sweep_hyperparam_grid(const dnn::Graph& graph,
                                const hw::CostTable& costs,
                                const hw::Platform& platform,
                                const DatasetGenConfig& config) {
  const std::vector<double>& eps_values = config.grid.eps_values;
  if (config.grid.size() == 0) {
    throw std::invalid_argument("sweep_hyperparam_grid: empty grid");
  }
  // One fused distance sweep at the grid's largest eps; every smaller eps
  // narrows that adjacency (O(nnz)) instead of rescanning the matrix.
  linalg::Workspace ws;
  linalg::Matrix distances;
  clustering::EpsAdjacency widest;
  clustering::power_distances_adj_into(
      features::DepthwiseFeatureExtractor::extract(graph), config.distance,
      *std::max_element(eps_values.begin(), eps_values.end()), ws, distances,
      widest);

  const double min_duration = feasible_block_duration(costs, platform);
  const std::size_t per_eps = config.grid.min_pts_values.size();
  clustering::EpsAdjacency adj;  // at grid point k's eps (k is eps-major)
  std::vector<clustering::PowerView> views;
  std::vector<ViewEvaluation> evals;
  double best_energy = -1.0;
  for (std::size_t k = 0; k < config.grid.size(); ++k) {
    if (k % per_eps == 0) {
      adj = widest.narrowed(distances, eps_values[k / per_eps]);
    }
    views.push_back(enforce_min_block_duration(
        costs,
        clustering::build_power_view_from_adjacency(distances, adj,
                                                    config.grid.at(k)),
        platform, min_duration));
    evals.push_back(evaluate_view_oracle(costs, views.back(), platform,
                                         config.cpu_level_for_labels));
    // Strict < keeps the lowest grid index on exact float ties, so the
    // reference optimum is itself deterministic.
    if (best_energy < 0.0 || evals.back().energy_j < best_energy) {
      best_energy = evals.back().energy_j;
    }
  }
  // Among hyperparameter classes within half a percent of the energy
  // optimum, prefer the finest feasible view: per-block instrumentation
  // hedges against runtime variation at no modelled energy cost. Ties are
  // broken deterministically — strictly-more blocks wins, equal block
  // counts keep the lower grid index (k ascends and the comparison is
  // strict) — so labels are stable across thread counts and platforms.
  std::size_t best_class = 0;
  std::size_t best_blocks = 0;
  for (std::size_t k = 0; k < config.grid.size(); ++k) {
    if (evals[k].energy_j <= best_energy * 1.005 &&
        views[k].block_count() > best_blocks) {
      best_blocks = views[k].block_count();
      best_class = k;
    }
  }
  return {best_class, std::move(views[best_class]),
          std::move(evals[best_class])};
}

GeneratedDatasets generate_datasets(const hw::Platform& platform,
                                    const DatasetGenConfig& config) {
  if (config.num_networks == 0) {
    throw std::invalid_argument("generate_datasets: num_networks == 0");
  }
  DatasetGenConfig cfg = config;
  if (cfg.cpu_level_for_labels == 0) {
    cfg.cpu_level_for_labels = platform.max_cpu_level();
  }

  obs::TraceWriter& tw = obs::default_trace();
  obs::ScopedSpan gen_span(
      tw, "generate_datasets", "pipeline",
      {obs::TraceArg::num("num_networks",
                          static_cast<double>(cfg.num_networks))});
  obs::MetricsRegistry& metrics = obs::global_metrics();
  obs::Counter& networks_ctr = metrics.counter(
      "powerlens_offline_networks_total", "networks labelled offline");
  obs::Counter& blocks_ctr = metrics.counter(
      "powerlens_offline_blocks_total", "dataset B block rows generated");
  obs::Histogram& network_hist = metrics.histogram(
      "powerlens_offline_network_seconds", obs::default_seconds_buckets(),
      "wall time to label one network");
  obs::log_info("dataset_gen", "generating datasets",
                {{"networks", static_cast<double>(cfg.num_networks)}});

  // One slot per network, written only by the task labelling that network;
  // the merge below reads them in index order, so the result is independent
  // of how tasks were scheduled across threads.
  struct NetworkRows {
    features::GlobalFeatures network;  // dataset A row
    int network_label = 0;
    std::vector<features::GlobalFeatures> blocks;  // dataset B rows
    std::vector<int> block_labels;
  };
  std::vector<NetworkRows> rows(cfg.num_networks);

  util::parallel_for(cfg.parallel, 0, cfg.num_networks, [&](std::size_t n) {
    obs::ScopedSpan net_span(
        tw, "network", "pipeline",
        {obs::TraceArg::num("index", static_cast<double>(n))});
    const auto net_start = std::chrono::steady_clock::now();
    dnn::RandomDnnGenerator generator(util::split_seed(cfg.seed, n),
                                      cfg.dnn_config);
    generator.set_sequence_index(n);
    const dnn::Graph graph = generator.generate();

    const std::size_t cpu_levels[] = {platform.max_cpu_level(),
                                      cfg.cpu_level_for_labels};
    const hw::CostTable costs(platform, graph.layers(), cpu_levels);
    const GridSweep sweep = sweep_hyperparam_grid(graph, costs, platform, cfg);

    // Dataset A row: whole-network features -> best hyperparameter class.
    // Dataset B rows: blocks of the best view -> optimal frequency level.
    NetworkRows& out = rows[n];
    out.network = features::GlobalFeatureExtractor::extract(graph);
    out.network_label = static_cast<int>(sweep.best_class);
    for (std::size_t b = 0; b < sweep.view.block_count(); ++b) {
      const clustering::PowerBlock& blk = sweep.view.blocks()[b];
      out.blocks.push_back(
          features::GlobalFeatureExtractor::extract(graph, blk.begin, blk.end));
      out.block_labels.push_back(static_cast<int>(sweep.eval.block_levels[b]));
    }

    networks_ctr.inc();
    blocks_ctr.inc(static_cast<double>(out.block_labels.size()));
    network_hist.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      net_start)
            .count());
  });

  GeneratedDatasets out;
  std::vector<const features::GlobalFeatures*> a_rows, b_rows;
  for (const NetworkRows& r : rows) {
    a_rows.push_back(&r.network);
    out.dataset_a.labels.push_back(r.network_label);
    for (const features::GlobalFeatures& f : r.blocks) b_rows.push_back(&f);
    out.dataset_b.labels.insert(out.dataset_b.labels.end(),
                                r.block_labels.begin(), r.block_labels.end());
  }
  const auto fill = [](nn::Dataset& d,
                       const std::vector<const features::GlobalFeatures*>& fs) {
    d.structural = linalg::Matrix(fs.size(), features::kStructuralDim);
    d.statistics = linalg::Matrix(fs.size(), features::kStatisticsDim);
    for (std::size_t r = 0; r < fs.size(); ++r) {
      std::copy(fs[r]->structural.begin(), fs[r]->structural.end(),
                &d.structural(r, 0));
      std::copy(fs[r]->statistics.begin(), fs[r]->statistics.end(),
                &d.statistics(r, 0));
    }
    d.validate();
  };
  fill(out.dataset_a, a_rows);
  fill(out.dataset_b, b_rows);
  out.networks_generated = a_rows.size();
  out.blocks_generated = b_rows.size();
  return out;
}

}  // namespace powerlens::core
