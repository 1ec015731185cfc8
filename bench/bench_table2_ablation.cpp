// Reproduces Table 2: energy-efficiency loss of the two clustering ablations
// relative to full PowerLens (section 3.2.3).
//   P-R: clustering replaced by random contiguous partitioning (same
//        feasible granularity class; averaged over several seeds).
//   P-N: no clustering — a single frequency decision for the whole DNN.
// Frequency decisions run through the same decision model in all three
// arms, isolating the contribution of power behavior similarity clustering.
//
// The bench exits non-zero unless the paper's shape holds (CHECK lines):
// on both platforms both ablations lose or tie on average, and P-R loses at
// least as much as P-N. A tie is a gain within kTie, half the printed
// precision of 0.01 percentage points.
#include "bench_common.hpp"

#include "core/ablation.hpp"

namespace powerlens::bench {
namespace {

constexpr int kPasses = 40;
constexpr std::int64_t kBatch = 8;
constexpr std::uint64_t kSeeds[] = {3, 7, 12, 19, 26};
constexpr double kTie = 0.005 / 100.0;

double run_plan(hw::SimEngine& engine, const dnn::Graph& g,
                const core::OptimizationPlan& plan) {
  baselines::OndemandGovernor cpu_governor;
  hw::RunPolicy policy = engine.default_policy();
  policy.schedule = &plan.schedule;
  policy.governor = &cpu_governor;
  return engine.run(g, kPasses, policy).energy_efficiency();
}

bool run_platform(const hw::Platform& platform) {
  std::printf("\n=== EE loss vs PowerLens on %s ===\n",
              platform.name.c_str());
  TrainedFramework t = train_for(platform);
  hw::SimEngine engine(t.platform);

  std::printf("%-16s %-9s %-9s\n", "model name", "P-R", "P-N");
  double avg_pr = 0.0;
  double avg_pn = 0.0;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(kBatch);
    const core::OptimizationPlan full = t.framework->optimize(g);
    const double ee_full = run_plan(engine, g, full);

    // P-R: random partitioning replaces clustering entirely — including its
    // granularity choice, so the block count is drawn at random too. This is
    // what actually hurts: infeasibly short blocks trigger switch storms the
    // clustering pipeline would never emit.
    double ee_pr = 0.0;
    for (std::uint64_t seed : kSeeds) {
      const std::size_t pr_blocks = 2 + seed % 13;  // 2..14, deterministic
      const core::OptimizationPlan plan = t.framework->plan_for_view(
          g, core::random_power_view(g.size(), pr_blocks, seed));
      ee_pr += run_plan(engine, g, plan);
    }
    ee_pr /= static_cast<double>(std::size(kSeeds));

    const core::OptimizationPlan pn =
        t.framework->plan_for_view(g, core::single_block_view(g.size()));
    const double ee_pn = run_plan(engine, g, pn);

    const double loss_pr = (ee_pr - ee_full) / ee_full;
    const double loss_pn = (ee_pn - ee_full) / ee_full;
    std::printf("%-16s %-8.2f%% %-8.2f%%\n", spec.name.data(),
                100.0 * loss_pr, 100.0 * loss_pn);
    avg_pr += loss_pr;
    avg_pn += loss_pn;
  }
  const double n = static_cast<double>(dnn::model_zoo().size());
  avg_pr /= n;
  avg_pn /= n;
  std::printf("%-16s %-8.2f%% %-8.2f%%\n", "Average", 100.0 * avg_pr,
              100.0 * avg_pn);
  const std::string name = platform.name;
  bool ok = check(avg_pr <= kTie,
                  (name + ": P-R loses or ties on average").c_str());
  ok &= check(avg_pn <= kTie,
              (name + ": P-N loses or ties on average").c_str());
  ok &= check(avg_pr <= avg_pn,
              (name + ": P-R loses at least as much as P-N").c_str());
  return ok;
}

}  // namespace
}  // namespace powerlens::bench

int main() {
  std::printf(
      "Table 2 reproduction: EE loss of P-R (random partitioning) and P-N "
      "(no clustering)\n");
  bool ok = powerlens::bench::run_platform(powerlens::hw::make_tx2());
  ok &= powerlens::bench::run_platform(powerlens::hw::make_agx());
  return ok ? 0 : 1;
}
