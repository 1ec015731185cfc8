// Reproduces the in-text prediction-model results (section 2.2):
//   - clustering-hyperparameter prediction model: 92.6% test accuracy
//   - target-frequency decision model: 94.2% test accuracy
//   - decision-model misses land "only one or two levels away"
// Protocol: generated random networks, 80%/10%/10% train/val/test split.
// The paper generated 8000 networks (31,242 blocks); pass a network count as
// argv[1] to scale up (default 1200 keeps the bench under a minute).
//
// The bench exits non-zero unless the paper's decision-model claims hold on
// both platforms (CHECK lines): test accuracy >= 90 % and a mean level
// error of at most one level.
#include "bench_common.hpp"

#include "dnn/random_gen.hpp"
#include "nn/tensor.hpp"

#include <cstdlib>

namespace powerlens::bench {
namespace {

bool run_platform(const hw::Platform& platform, std::size_t networks) {
  std::printf("\n=== Prediction models on %s (%zu networks) ===\n",
              platform.name.c_str(), networks);
  core::PowerLensConfig cfg = bench_config(networks);
  cfg.train_hyper.epochs = 120;
  cfg.train_decision.epochs = 120;
  core::PowerLens framework(platform, cfg);
  const core::TrainingSummary s = framework.train();

  std::printf("  dataset: %zu networks -> %zu block samples\n", s.networks,
              s.blocks);
  std::printf(
      "  hyperparameter model: test accuracy %.1f%%  (paper: 92.6%%)\n",
      100.0 * s.hyper_model.test_accuracy);
  std::printf(
      "  decision model:       test accuracy %.1f%%  (paper: 94.2%%)\n",
      100.0 * s.decision_model.test_accuracy);
  std::printf(
      "  decision model mean |level error|: %.2f levels (paper: misses "
      "within 1-2 levels)\n",
      s.decision_model.test_mean_level_error);

  // Raw class accuracy understates the hyperparameter model: several grid
  // points collapse to the same power view, so label classes are ambiguous.
  // Deployment regret is the operative metric — the analytic energy of the
  // *predicted* plan vs the exhaustive-sweep oracle plan on held-out
  // networks.
  dnn::RandomDnnGenerator holdout(cfg.dataset.seed + 999'983);
  constexpr int kHoldout = 80;
  double regret_sum = 0.0;
  int within_1pct = 0;
  for (int i = 0; i < kHoldout; ++i) {
    const dnn::Graph g = holdout.generate();
    const core::OptimizationPlan predicted = framework.optimize(g);
    const core::OptimizationPlan oracle = framework.optimize_oracle(g);
    const std::size_t cpu_levels[] = {platform.max_cpu_level()};
    const hw::CostTable costs(platform, g.layers(), cpu_levels);
    const double e_pred = core::evaluate_view_oracle(costs, predicted.view,
                                                     platform, cpu_levels[0])
                              .energy_j;
    const double e_oracle = core::evaluate_view_oracle(costs, oracle.view,
                                                       platform, cpu_levels[0])
                                .energy_j;
    const double regret = e_pred / e_oracle - 1.0;
    regret_sum += regret;
    if (regret < 0.01) ++within_1pct;
  }
  std::printf(
      "  hyperparameter deployment regret: mean %.2f%%; %.0f%% of held-out "
      "networks within 1%% of the oracle plan\n",
      100.0 * regret_sum / kHoldout, 100.0 * within_1pct / kHoldout);
  const std::string name = platform.name;
  bool ok = check(s.decision_model.test_accuracy >= 0.90,
                  (name + ": decision-model test accuracy >= 90%").c_str());
  ok &= check(s.decision_model.test_mean_level_error <= 1.0,
              (name + ": decision-model mean level error <= 1").c_str());
  return ok;
}

}  // namespace
}  // namespace powerlens::bench

int main(int argc, char** argv) {
  const std::size_t networks =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1200;
  std::printf("Prediction-model accuracy reproduction (section 2.2)\n");
  using powerlens::bench::run_platform;
  bool ok = run_platform(powerlens::hw::make_tx2(), networks);
  ok &= run_platform(powerlens::hw::make_agx(), networks);
  return ok ? 0 : 1;
}
