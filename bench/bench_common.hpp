// Shared setup for the table/figure reproduction binaries.
#pragma once

#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "core/metrics.hpp"
#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "hw/sim_engine.hpp"
#include "obs/setup.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace powerlens::bench {

// Offline configuration used across benches: large enough for stable
// prediction models, small enough that every bench binary finishes in
// seconds. bench_model_accuracy scales this up toward the paper's 8000.
inline core::PowerLensConfig bench_config(std::size_t networks = 300) {
  core::PowerLensConfig cfg;
  cfg.dataset.num_networks = networks;
  cfg.dataset.seed = 2024;
  cfg.train_hyper.epochs = 60;
  cfg.train_decision.epochs = 60;
  return cfg;
}

struct TrainedFramework {
  hw::Platform platform;
  std::unique_ptr<core::PowerLens> framework;
  core::TrainingSummary summary;
};

inline TrainedFramework train_for(const hw::Platform& platform,
                                  std::size_t networks = 300) {
  TrainedFramework t{platform, nullptr, {}};
  t.framework = std::make_unique<core::PowerLens>(t.platform,
                                                  bench_config(networks));
  t.summary = t.framework->train();
  return t;
}

// One acceptance check: prints a CHECK line and returns `ok`, so a bench
// can fold its checks into a non-zero exit code.
inline bool check(bool ok, const char* what) {
  std::printf("CHECK %-60s %s\n", what, ok ? "OK" : "FAILED");
  return ok;
}

// Wall-clock milliseconds of one run of `body`.
template <typename F>
double sample_ms(F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct PairedRatio {
  double median = 0.0;  // median over pairs of a / b
  double a_min = 0.0;   // each side's fastest sample
  double b_min = 0.0;
};

// Ratio of two timings that survives a host whose speed changes between
// phases: A and B are sampled as adjacent pairs (ABAB...), so a speed
// change lands on both sides of most pairs, and the median of the per-pair
// ratios discards the pairs it split. `a` and `b` each return one sample in
// the same unit.
template <typename A, typename B>
PairedRatio paired_ratio(A&& a, B&& b, int pairs = 15) {
  std::vector<double> ratios;
  PairedRatio out{0.0, std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::infinity()};
  for (int i = 0; i < pairs; ++i) {
    const double ta = a();
    const double tb = b();
    ratios.push_back(ta / tb);
    out.a_min = std::min(out.a_min, ta);
    out.b_min = std::min(out.b_min, tb);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  out.median = ratios.size() % 2 == 1 ? ratios[mid]
                                      : 0.5 * (ratios[mid - 1] + ratios[mid]);
  return out;
}

// The four methods of the evaluation (section 3.1).
enum class Method { kBiM, kFpgG, kFpgCG, kPowerLens };

inline const char* method_name(Method m) {
  switch (m) {
    case Method::kBiM: return "BiM";
    case Method::kFpgG: return "FPG-G";
    case Method::kFpgCG: return "FPG-CG";
    case Method::kPowerLens: return "PowerLens";
  }
  return "?";
}

// Runs one workload under one method. For PowerLens the per-item plans must
// be precomputed (one schedule per distinct graph is the paper's offline
// instrumentation).
inline hw::ExecutionResult run_method(
    hw::SimEngine& engine, std::span<const hw::WorkItem> items, Method method,
    const hw::PresetSchedule* schedule) {
  hw::RunPolicy policy = engine.default_policy();
  policy.trace_label = method_name(method);
  baselines::OndemandGovernor ondemand;
  baselines::FpgGovernor fpg_g(baselines::FpgMode::kGpuOnly);
  baselines::FpgGovernor fpg_cg(baselines::FpgMode::kCpuGpu);
  baselines::OndemandGovernor cpu_only;  // CPU governor under PowerLens

  switch (method) {
    case Method::kBiM:
      policy.governor = &ondemand;
      break;
    case Method::kFpgG:
      policy.governor = &fpg_g;
      break;
    case Method::kFpgCG:
      policy.governor = &fpg_cg;
      break;
    case Method::kPowerLens:
      policy.governor = &cpu_only;
      policy.schedule = schedule;
      break;
  }
  return engine.run_workload(items, policy);
}

inline hw::ExecutionResult run_method(hw::SimEngine& engine,
                                      const dnn::Graph& graph, int passes,
                                      Method method,
                                      const hw::PresetSchedule* schedule) {
  const hw::WorkItem item{&graph, passes};
  return run_method(engine, std::span<const hw::WorkItem>{&item, 1}, method,
                    schedule);
}

}  // namespace powerlens::bench
