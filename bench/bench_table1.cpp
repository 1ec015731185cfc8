// Reproduces Table 1: energy-efficiency improvement of PowerLens over BiM
// (ondemand), FPG-G, and FPG-C+G for the 12 torchvision models on the TX2
// and AGX platforms. Columns are (EE_powerlens - EE_baseline) / EE_baseline,
// exactly the table's footnote definition; "Block" is the power-block count
// of the PowerLens view.
//
// The paper averages 50 randomized runs per cell; the simulation is
// deterministic at fixed seeds, so each cell is a single steady-state run of
// kPasses forward passes.
//
// The bench exits non-zero unless the paper's shape holds (CHECK lines):
// the averages order BiM > FPG-G > FPG-C+G on both platforms, AGX gains
// exceed TX2 gains in every column, and every model gains against every
// baseline.
#include "bench_common.hpp"

namespace powerlens::bench {
namespace {

constexpr int kPasses = 40;
constexpr std::int64_t kBatch = 8;

struct Row {
  std::string model;
  std::size_t blocks;
  double vs_bim, vs_fpg_g, vs_fpg_cg;
};

struct PlatformResult {
  Row avg;
  bool every_model_gains = true;
};

PlatformResult run_platform(const hw::Platform& platform) {
  std::printf("\n=== Energy efficiency improvement on %s ===\n",
              platform.name.c_str());
  TrainedFramework t = train_for(platform);
  hw::SimEngine engine(t.platform);

  std::printf("%-16s %-7s %-9s %-9s %-9s\n", "model name", "Block", "BiM",
              "FPG-G", "FPG-CG");
  PlatformResult result{{"Average", 0, 0, 0, 0}};
  Row& avg = result.avg;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(kBatch);
    const core::OptimizationPlan plan = t.framework->optimize(g);

    const hw::ExecutionResult r_pl =
        run_method(engine, g, kPasses, Method::kPowerLens, &plan.schedule);
    const hw::ExecutionResult r_bim =
        run_method(engine, g, kPasses, Method::kBiM, nullptr);
    const hw::ExecutionResult r_fg =
        run_method(engine, g, kPasses, Method::kFpgG, nullptr);
    const hw::ExecutionResult r_fcg =
        run_method(engine, g, kPasses, Method::kFpgCG, nullptr);

    const Row row{std::string(spec.name), plan.view.block_count(),
                  core::ee_gain(r_pl, r_bim), core::ee_gain(r_pl, r_fg),
                  core::ee_gain(r_pl, r_fcg)};
    std::printf("%-16s %-7zu %-9.2f%% %-8.2f%% %-8.2f%%\n", row.model.c_str(),
                row.blocks, 100.0 * row.vs_bim, 100.0 * row.vs_fpg_g,
                100.0 * row.vs_fpg_cg);
    result.every_model_gains = result.every_model_gains && row.vs_bim > 0.0 &&
                               row.vs_fpg_g > 0.0 && row.vs_fpg_cg > 0.0;
    avg.vs_bim += row.vs_bim;
    avg.vs_fpg_g += row.vs_fpg_g;
    avg.vs_fpg_cg += row.vs_fpg_cg;
  }
  const double n = static_cast<double>(dnn::model_zoo().size());
  avg.vs_bim /= n;
  avg.vs_fpg_g /= n;
  avg.vs_fpg_cg /= n;
  std::printf("%-16s %-7s %-9.2f%% %-8.2f%% %-8.2f%%\n", "Average", "-",
              100.0 * avg.vs_bim, 100.0 * avg.vs_fpg_g,
              100.0 * avg.vs_fpg_cg);
  return result;
}

bool ordered(const Row& avg) {
  return avg.vs_bim > avg.vs_fpg_g && avg.vs_fpg_g > avg.vs_fpg_cg;
}

}  // namespace
}  // namespace powerlens::bench

int main() {
  using namespace powerlens::bench;
  std::printf("Table 1 reproduction: EE gains of PowerLens vs baselines\n");
  const PlatformResult tx2 = run_platform(powerlens::hw::make_tx2());
  const PlatformResult agx = run_platform(powerlens::hw::make_agx());
  std::printf("\n");
  bool ok =
      check(ordered(tx2.avg), "TX2 averages order BiM > FPG-G > FPG-C+G");
  ok &= check(ordered(agx.avg), "AGX averages order BiM > FPG-G > FPG-C+G");
  ok &= check(agx.avg.vs_bim > tx2.avg.vs_bim &&
                  agx.avg.vs_fpg_g > tx2.avg.vs_fpg_g &&
                  agx.avg.vs_fpg_cg > tx2.avg.vs_fpg_cg,
              "AGX average gain exceeds TX2 in every column");
  ok &= check(tx2.every_model_gains && agx.every_model_gains,
              "every model gains against every baseline on both platforms");
  return ok ? 0 : 1;
}
