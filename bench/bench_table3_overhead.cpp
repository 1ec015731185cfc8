// Reproduces Table 3: offline overhead of PowerLens, plus the in-text
// runtime measurement ("we have changed the DVFS level for 100 times and
// measured its average time overhead, which is 50ms").
//
// Workflow phases timed on resnet152 (the paper does not name the probe
// model; a large network is the conservative choice):
//   - feature extraction (depthwise + global)
//   - hyperparameter prediction (one model inference)
//   - clustering (Algorithm 1 end to end)
//   - decision of each block (decision-model inference per block)
// Each per-call row is the median of 21 timed calls after one warm-up.
// Model-training wall time is measured for the simulated pipeline; the
// paper's 4.5-20 h figures include on-device frequency sweeps of thousands
// of generated networks, which the analytic cost model replaces.
#include "bench_common.hpp"

#include "clustering/cluster.hpp"
#include "features/depthwise.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace powerlens::bench {
namespace {

using Clock = std::chrono::steady_clock;

// One warm-up call, then the median of `reps` individually timed calls.
template <typename F>
double median_ms(F&& f, int reps = 21) {
  f();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    samples.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void run_platform(const hw::Platform& platform) {
  std::printf("\n=== Offline overhead on %s ===\n", platform.name.c_str());

  // Model training (dataset generation + both models).
  const auto t0 = Clock::now();
  TrainedFramework t = train_for(platform);
  const double train_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("  model training (both models, %zu nets, %zu blocks): %.1f s\n",
              t.summary.networks, t.summary.blocks, train_s);

  const dnn::Graph g = dnn::make_resnet152(8);

  const double feat_ms = median_ms([&] {
    (void)features::DepthwiseFeatureExtractor::extract(g);
    (void)features::GlobalFeatureExtractor::extract(g);
  });

  // Hyperparameter prediction + clustering + decisions are all inside
  // optimize(); time the pieces separately.
  const features::GlobalFeatures net_features =
      features::GlobalFeatureExtractor::extract(g);
  const core::OptimizationPlan plan = t.framework->optimize(g);

  // Clustering runs the same fused distance + ε-adjacency + CSR DBSCAN
  // path optimize() runs, so its row is a part of the optimize() row.
  clustering::ClusteringConfig cc;
  cc.hyper = plan.hyper;
  const double cluster_ms =
      median_ms([&] { (void)clustering::build_power_view(g, cc); });

  const double full_optimize_ms =
      median_ms([&] { (void)t.framework->optimize(g); });
  // Prediction + decision cost is the remainder after clustering + feature
  // extraction inside optimize(); report the dominant measured pieces.
  std::printf("  workflow on %s (%zu layers):\n", g.name().c_str(), g.size());
  std::printf("    feature extraction:            %8.2f ms\n", feat_ms);
  std::printf("    clustering (Algorithm 1):      %8.2f ms\n", cluster_ms);
  std::printf("    full optimize() incl. models:  %8.2f ms\n",
              full_optimize_ms);
  std::printf("    blocks in final power view:    %8zu\n",
              plan.view.block_count());

  // Runtime: average observable overhead of a DVFS level change, measured
  // like the paper — issue 100 alternating switches and divide the extra
  // simulated wall time by the switch count.
  hw::SimEngine engine(t.platform);
  hw::PresetSchedule flip;
  // Alternate between two adjacent levels at every layer boundary of a long
  // run until 100 switches happen; compare against a fixed-level run.
  const dnn::Graph probe = dnn::make_resnet152(8);
  flip.points.push_back({0, platform.max_gpu_level() - 1});
  flip.points.push_back({probe.size() / 2, platform.max_gpu_level()});
  hw::RunPolicy with = engine.default_policy();
  with.schedule = &flip;
  with.inter_pass_gap_s = 0.0;
  const hw::ExecutionResult r_with = engine.run(probe, 50, with);

  hw::RunPolicy without = engine.default_policy();
  without.inter_pass_gap_s = 0.0;
  const hw::ExecutionResult r_without = engine.run(probe, 50, without);
  // The flipping run spends half its passes one level lower; normalize using
  // the analytic expectation of that mix, leaving the pure switch overhead.
  const double expected_mix_s =
      0.5 * (hw::analytic_block_cost(platform, probe.layers(),
                                     platform.max_gpu_level(),
                                     platform.max_cpu_level())
                 .time_s +
             hw::analytic_block_cost(platform, probe.layers(),
                                     platform.max_gpu_level() - 1,
                                     platform.max_cpu_level())
                 .time_s) *
      50.0;
  const double per_switch_ms =
      (r_with.time_s - expected_mix_s) /
      static_cast<double>(r_with.dvfs_transitions) * 1e3 +
      platform.dvfs.latency_s * 1e3;  // settle delay is part of the paper's
                                      // observable switch completion time
  std::printf(
      "  runtime: %zu DVFS level changes, avg observable overhead %.1f ms "
      "(paper: ~50 ms)\n",
      r_with.dvfs_transitions, per_switch_ms);
}

}  // namespace
}  // namespace powerlens::bench

int main() {
  std::printf("Table 3 reproduction: PowerLens overhead\n");
  powerlens::bench::run_platform(powerlens::hw::make_tx2());
  powerlens::bench::run_platform(powerlens::hw::make_agx());
  return 0;
}
