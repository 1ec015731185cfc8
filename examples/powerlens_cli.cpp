// powerlens_cli: the framework as a command-line tool.
//
//   powerlens_cli train    <tx2|agx> <models.plbin> [num_networks]
//   powerlens_cli optimize <tx2|agx> <models.plbin> <model> [batch]
//   powerlens_cli profile  <tx2|agx> <model> [level] [batch]
//   powerlens_cli run      <tx2|agx> <models.plbin> <model> [passes] [batch]
//   powerlens_cli serve    <tx2|agx> <models.plbin|-> [tasks] [policy]
//                          [workers] [rate_hz]
//   powerlens_cli models
//   powerlens_cli export-graph <model> <out.plbin> [batch]
//   powerlens_cli export-plans <tx2|agx> <models.plbin> <out.plbin> [batch]
//   powerlens_cli export-costs <tx2|agx> <model> <out.plbin> [batch]
//   powerlens_cli import <file.plbin>
//
// `train` runs the offline phase and persists the trained bundle;
// `optimize` loads it and prints the instrumentation plan; `profile` dumps
// the per-layer roofline profile; `run` simulates deployment against the
// ondemand baseline; `serve` replays a seeded request stream over the whole
// model zoo through the serving engine (policy: powerlens|maxn|bim|fpg-g|
// fpg-cg; rate_hz 0 = closed loop, otherwise Poisson arrivals) and prints a
// JSON summary. Pass `-` for the bundle with non-powerlens policies.
//
// Every command also accepts the observability flags:
//   --trace <file>     Chrome/Perfetto trace (load in ui.perfetto.dev)
//   --metrics <file>   metrics snapshot (JSON; Prometheus text in <file>.prom)
//   --journal <file>   structured event journal (JSONL, one record per line;
//                      deterministic — byte-identical at any worker count)
//   --residuals <file> predicted-vs-observed residual snapshot (JSON)
//   --log-level <lvl>  off|error|warn|info|debug|trace (or env POWERLENS_LOG)
//
// `serve` additionally accepts:
//   --faults <spec>            deterministic hardware fault injection, e.g.
//                              "dvfs=0.1,sticky=0.2,thermal=0.5,seed=42"
//                              (keys: dvfs sticky thermal thermal_s
//                              thermal_cap telemetry latency latency_x seed)
//   --plan-cache-capacity <n>  bound resident plans with LRU eviction
//                              (0 = unbounded, the default)
//   --plan-snapshot <file>     warm-start the plan cache from an
//                              export-plans snapshot before serving — with
//                              full coverage, plan_cache_misses stays 0
//   --model-dir <dir>          deploy the *.plbin graphs in <dir> (sorted
//                              by filename) instead of the built-in zoo
//   --report-json <file>       also write the JSON report to <file>
//
// The export-* commands write versioned binary records (src/io, .plbin);
// `import` inspects and summarizes any of them. `export-plans` computes a
// plan per zoo model and snapshots them keyed by graph signature — the
// input for `serve --plan-snapshot`. The export batch size must match the
// serving batch size (10) for the signatures to line up.
#include "baselines/ondemand.hpp"
#include "core/metrics.hpp"
#include "core/powerlens.hpp"
#include "core/report.hpp"
#include "dnn/models.hpp"
#include "fault/fault_spec.hpp"
#include "hw/sim_engine.hpp"
#include "io/interchange.hpp"
#include "obs/setup.hpp"
#include "serve/model_dir.hpp"
#include "serve/adapt.hpp"
#include "serve/server.hpp"
#include "serve/signature.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

using namespace powerlens;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  powerlens_cli train    <tx2|agx> <models.plbin> [networks]\n"
               "  powerlens_cli optimize <tx2|agx> <models.plbin> <model> "
               "[batch]\n"
               "  powerlens_cli profile  <tx2|agx> <model> [level] [batch]\n"
               "  powerlens_cli run      <tx2|agx> <models.plbin> <model> "
               "[passes] [batch]\n"
               "  powerlens_cli serve    <tx2|agx> <models.plbin|-> [tasks] "
               "[powerlens|maxn|bim|fpg-g|fpg-cg] [workers] [rate_hz]\n"
               "  powerlens_cli models\n"
               "  powerlens_cli export-graph <model> <out.plbin> [batch]\n"
               "  powerlens_cli export-plans <tx2|agx> <models.plbin> "
               "<out.plbin> [batch]\n"
               "  powerlens_cli export-costs <tx2|agx> <model> <out.plbin> "
               "[batch]\n"
               "  powerlens_cli import <file.plbin>\n"
               "common flags: --trace <file> --metrics <file> "
               "--journal <file> --residuals <file> "
               "--log-level <off|error|warn|info|debug|trace>\n"
               "serve flags:  --faults <spec> --plan-cache-capacity <n> "
               "--plan-snapshot <file> --model-dir <dir> "
               "--report-json <file> --adapt [--adapt-epoch <n>] "
               "[--retrain]\n");
  return 2;
}

// Serve-specific flags, stripped from argv before positional dispatch (the
// same contract as obs::extract_cli_flags).
struct ServeFlags {
  std::string faults;
  std::size_t plan_cache_capacity = 0;
  std::string plan_snapshot;
  std::string model_dir;
  std::string report_json;
  // Closed-loop adaptation (serve/adapt): drift-triggered re-planning at
  // epoch boundaries, plus optional background model retraining.
  bool adapt = false;
  std::size_t adapt_epoch = 32;
  bool retrain = false;
};

ServeFlags extract_serve_flags(int& argc, char** argv) {
  ServeFlags flags;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--faults" && i + 1 < argc) {
      flags.faults = argv[++i];
    } else if (arg == "--plan-cache-capacity" && i + 1 < argc) {
      flags.plan_cache_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--plan-snapshot" && i + 1 < argc) {
      flags.plan_snapshot = argv[++i];
    } else if (arg == "--model-dir" && i + 1 < argc) {
      flags.model_dir = argv[++i];
    } else if (arg == "--report-json" && i + 1 < argc) {
      flags.report_json = argv[++i];
    } else if (arg == "--adapt") {
      flags.adapt = true;
    } else if (arg == "--adapt-epoch" && i + 1 < argc) {
      flags.adapt_epoch = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--retrain") {
      flags.retrain = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flags;
}

hw::Platform parse_platform(const std::string& name) {
  if (name == "tx2") return hw::make_tx2();
  if (name == "agx") return hw::make_agx();
  throw std::invalid_argument("unknown platform '" + name +
                              "' (expected tx2 or agx)");
}

int cmd_models() {
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(1);
    std::printf("%-16s %5zu layers  %8.2f GFLOPs/img  %7.1f M params\n",
                spec.name.data(), g.size(),
                static_cast<double>(g.total_flops()) / 1e9,
                static_cast<double>(g.total_params()) / 1e6);
  }
  return 0;
}

int cmd_train(const hw::Platform& platform, const std::string& bundle,
              std::size_t networks) {
  core::PowerLensConfig cfg;
  cfg.dataset.num_networks = networks;
  core::PowerLens framework(platform, cfg);
  std::printf("training on %zu generated networks ...\n", networks);
  const core::TrainingSummary s = framework.train();
  framework.save_models(bundle);
  std::printf(
      "saved %s: hyper acc %.1f%%, decision acc %.1f%% (level err %.2f)\n",
      bundle.c_str(), 100.0 * s.hyper_model.test_accuracy,
      100.0 * s.decision_model.test_accuracy,
      s.decision_model.test_mean_level_error);
  return 0;
}

int cmd_optimize(const hw::Platform& platform, const std::string& bundle,
                 const std::string& model, std::int64_t batch) {
  core::PowerLens framework(platform, {});
  framework.load_models(bundle);
  const dnn::Graph g = dnn::make_model(model, batch);
  const core::OptimizationPlan plan = framework.optimize(g);
  core::write_plan_summary(std::cout, g, platform, plan);
  return 0;
}

int cmd_profile(const hw::Platform& platform, const std::string& model,
                std::size_t level, std::int64_t batch) {
  const dnn::Graph g = dnn::make_model(model, batch);
  core::write_layer_profile(std::cout, g, platform, level);
  return 0;
}

int cmd_run(const hw::Platform& platform, const std::string& bundle,
            const std::string& model, int passes, std::int64_t batch) {
  core::PowerLens framework(platform, {});
  framework.load_models(bundle);
  const dnn::Graph g = dnn::make_model(model, batch);
  const core::OptimizationPlan plan = framework.optimize(g);

  hw::SimEngine engine(platform);
  baselines::OndemandGovernor bim;
  hw::RunPolicy bim_policy = engine.default_policy();
  bim_policy.governor = &bim;
  bim_policy.trace_label = "ondemand";
  const hw::ExecutionResult r_bim = engine.run(g, passes, bim_policy);

  baselines::OndemandGovernor cpu_governor;
  hw::RunPolicy pl_policy = engine.default_policy();
  pl_policy.schedule = &plan.schedule;
  pl_policy.governor = &cpu_governor;
  pl_policy.trace_label = "powerlens";
  const hw::ExecutionResult r_pl = engine.run(g, passes, pl_policy);

  std::printf("%-10s %10s %10s %14s\n", "method", "time_s", "energy_J",
              "EE_img_per_J");
  std::printf("%-10s %10.2f %10.1f %14.3f\n", "ondemand", r_bim.time_s,
              r_bim.energy_j, r_bim.energy_efficiency());
  std::printf("%-10s %10.2f %10.1f %14.3f\n", "powerlens", r_pl.time_s,
              r_pl.energy_j, r_pl.energy_efficiency());
  std::printf("EE gain: %.1f%%\n", 100.0 * core::ee_gain(r_pl, r_bim));
  return 0;
}

int cmd_export_graph(const std::string& model, const std::string& out,
                     std::int64_t batch) {
  const dnn::Graph g = dnn::make_model(model, batch);
  io::save_graph(out, g);
  std::printf("wrote %s: graph '%s', %zu layers, signature %016llx\n",
              out.c_str(), g.name().c_str(), g.size(),
              static_cast<unsigned long long>(serve::graph_signature(g)));
  return 0;
}

int cmd_export_plans(const hw::Platform& platform, const std::string& bundle,
                     const std::string& out, std::int64_t batch) {
  core::PowerLens framework(platform, {});
  framework.load_models(bundle);
  std::vector<io::PlanRecord> records;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(batch);
    records.push_back(
        io::PlanRecord{serve::graph_signature(g), framework.optimize(g)});
  }
  io::save_plan_snapshot(out, records);
  std::printf("wrote %s: %zu plans (zoo at batch %lld on %s)\n", out.c_str(),
              records.size(), static_cast<long long>(batch),
              platform.name.c_str());
  return 0;
}

int cmd_export_costs(const hw::Platform& platform, const std::string& model,
                     const std::string& out, std::int64_t batch) {
  const dnn::Graph g = dnn::make_model(model, batch);
  const hw::CostTable table(platform, g.layers());
  io::save_cost_table(out, table);
  std::printf("wrote %s: cost table for '%s', %zu layers x %zu gpu levels\n",
              out.c_str(), g.name().c_str(), table.num_layers(),
              table.gpu_levels());
  return 0;
}

int cmd_import(const std::string& path) {
  const std::vector<std::byte> bytes = io::read_file(path);
  const io::RecordInfo info = io::inspect_record(bytes);
  switch (info.type) {
    case io::RecordType::kGraph: {
      const dnn::Graph g = io::decode_graph(bytes);
      std::printf("%s: graph record, %zu payload bytes\n", path.c_str(),
                  info.payload_bytes);
      std::printf("  '%s': %zu layers, %.2f GFLOPs, %.1f M params, "
                  "signature %016llx\n",
                  g.name().c_str(), g.size(),
                  static_cast<double>(g.total_flops()) / 1e9,
                  static_cast<double>(g.total_params()) / 1e6,
                  static_cast<unsigned long long>(serve::graph_signature(g)));
      return 0;
    }
    case io::RecordType::kPlan: {
      // A plan file may be a single record or an export-plans snapshot;
      // the snapshot loader handles both.
      const std::vector<io::PlanRecord> records =
          io::load_plan_snapshot(path);
      std::printf("%s: %zu plan record%s\n", path.c_str(), records.size(),
                  records.size() == 1 ? "" : "s");
      for (const io::PlanRecord& r : records) {
        std::printf("  signature %016llx: %zu blocks, predicted %.4f s, "
                    "%.2f J per pass\n",
                    static_cast<unsigned long long>(r.graph_signature),
                    r.plan.view.block_count(), r.plan.predicted_pass_time_s,
                    r.plan.predicted_pass_energy_j);
      }
      return 0;
    }
    case io::RecordType::kCostTable: {
      const hw::CostTable table = io::decode_cost_table(bytes);
      std::printf("%s: cost-table record, %zu payload bytes\n", path.c_str(),
                  info.payload_bytes);
      std::printf("  %zu layers x %zu gpu levels\n", table.num_layers(),
                  table.gpu_levels());
      return 0;
    }
    case io::RecordType::kModelBundle: {
      const core::ModelBundle bundle = core::decode_model_bundle(bytes);
      std::printf("%s: model-bundle record, %zu payload bytes\n",
                  path.c_str(), info.payload_bytes);
      std::printf("  trained for platform '%s'\n", bundle.platform.c_str());
      return 0;
    }
  }
  std::fprintf(stderr, "error: %s: unknown record type\n", path.c_str());
  return 1;
}

serve::ServePolicy parse_policy(const std::string& name) {
  if (name == "powerlens") return serve::ServePolicy::kPowerLens;
  if (name == "maxn") return serve::ServePolicy::kMaxn;
  if (name == "bim") return serve::ServePolicy::kBiM;
  if (name == "fpg-g") return serve::ServePolicy::kFpgG;
  if (name == "fpg-cg") return serve::ServePolicy::kFpgCG;
  throw std::invalid_argument("unknown serve policy '" + name + "'");
}

int cmd_serve(const hw::Platform& platform, const std::string& bundle,
              std::size_t tasks, serve::ServePolicy policy,
              std::size_t workers, double rate_hz,
              const ServeFlags& flags) {
  core::PowerLens framework(platform, {});
  if (policy == serve::ServePolicy::kPowerLens) {
    if (bundle == "-") {
      throw std::invalid_argument(
          "serve: the powerlens policy needs a trained bundle (run "
          "`powerlens_cli train` first)");
    }
    framework.load_models(bundle);
  }

  constexpr std::int64_t kBatch = 10;
  std::vector<serve::DeployedModel> models;
  if (!flags.model_dir.empty()) {
    models = serve::load_model_population(flags.model_dir);
  } else {
    for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
      models.push_back({std::string(spec.name), spec.build(kBatch)});
    }
  }

  serve::RequestStreamConfig stream_config;
  stream_config.num_tasks = tasks;
  if (rate_hz > 0.0) {
    stream_config.arrivals = serve::ArrivalProcess::kPoisson;
    stream_config.arrival_rate_hz = rate_hz;
  }
  const serve::RequestStream stream(models.size(), stream_config);

  serve::ServerConfig config;
  config.policy = policy;
  config.num_workers = workers;
  config.plan_cache_capacity = flags.plan_cache_capacity;
  if (!flags.faults.empty()) {
    config.faults = fault::FaultSpec::parse(flags.faults);
  }
  if (flags.adapt) {
    if (policy != serve::ServePolicy::kPowerLens) {
      throw std::invalid_argument(
          "serve: --adapt requires the powerlens policy");
    }
    config.adapt_enabled = true;
    config.adapt_epoch_tasks = flags.adapt_epoch;
    config.adapt_retrain = flags.retrain;
  }
  serve::Server server(platform, std::move(models), config, &framework);
  if (!flags.plan_snapshot.empty()) {
    const std::size_t installed =
        server.warm_start_from_snapshot(flags.plan_snapshot);
    std::fprintf(stderr, "warm start: %zu plans preloaded from %s\n",
                 installed, flags.plan_snapshot.c_str());
  }
  const serve::ServeReport report = server.serve(stream);

  std::printf("%zu tasks on %s under %s: %.1f J, makespan %.2f s, EE %.4f "
              "img/J, p99 latency %.3f s\n",
              report.total_tasks, report.platform.c_str(),
              report.policy.c_str(), report.energy_j, report.makespan_s,
              report.energy_efficiency(), report.latency_p99_s);
  if (config.faults.active()) {
    std::printf("faults: %zu dvfs failed, %zu thermal, %zu telemetry "
                "dropped, %zu inflated; recovery: %zu retries, %zu "
                "fallbacks, %.2f s backoff\n",
                report.faults.dvfs_failed, report.faults.thermal_events,
                report.faults.telemetry_dropped,
                report.faults.latency_inflated, report.retries,
                report.fallbacks, report.backoff_s);
  }
  if (report.residual_scored > 0) {
    std::printf("prediction residuals over %zu requests: latency %+.1f%%, "
                "energy %+.1f%% (observed vs predicted)\n",
                report.residual_scored,
                report.latency_residual_mean * 100.0,
                report.energy_residual_mean * 100.0);
  }
  if (const serve::AdaptController* adapt = server.adapt_controller()) {
    std::printf("adaptation: %llu epochs, %llu re-plans, %llu retrain "
                "rounds, %llu model swaps\n",
                static_cast<unsigned long long>(adapt->epochs()),
                static_cast<unsigned long long>(adapt->replans()),
                static_cast<unsigned long long>(adapt->retrain_rounds()),
                static_cast<unsigned long long>(adapt->model_swaps()));
  }
  report.write_json(std::cout);
  if (!flags.report_json.empty()) {
    std::ofstream os(flags.report_json);
    if (!os) {
      throw std::runtime_error("serve: cannot open '" + flags.report_json +
                               "' for writing");
    }
    report.write_json(os);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const obs::ObsOptions obs_options = obs::extract_cli_flags(argc, argv);
  const obs::ObsScope obs_scope(obs_options);
  const ServeFlags serve_flags = extract_serve_flags(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "models") return cmd_models();
    if (cmd == "train" && argc >= 4) {
      return cmd_train(parse_platform(argv[2]), argv[3],
                       argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4]))
                                : 300);
    }
    if (cmd == "optimize" && argc >= 5) {
      return cmd_optimize(parse_platform(argv[2]), argv[3], argv[4],
                          argc > 5 ? std::atoll(argv[5]) : 8);
    }
    if (cmd == "profile" && argc >= 4) {
      const hw::Platform p = parse_platform(argv[2]);
      return cmd_profile(
          p, argv[3],
          argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4]))
                   : p.gpu_levels() / 2,
          argc > 5 ? std::atoll(argv[5]) : 8);
    }
    if (cmd == "run" && argc >= 5) {
      return cmd_run(parse_platform(argv[2]), argv[3], argv[4],
                     argc > 5 ? std::atoi(argv[5]) : 30,
                     argc > 6 ? std::atoll(argv[6]) : 8);
    }
    if (cmd == "export-graph" && argc >= 4) {
      return cmd_export_graph(argv[2], argv[3],
                              argc > 4 ? std::atoll(argv[4]) : 8);
    }
    if (cmd == "export-plans" && argc >= 5) {
      return cmd_export_plans(parse_platform(argv[2]), argv[3], argv[4],
                              argc > 5 ? std::atoll(argv[5]) : 10);
    }
    if (cmd == "export-costs" && argc >= 5) {
      return cmd_export_costs(parse_platform(argv[2]), argv[3], argv[4],
                              argc > 5 ? std::atoll(argv[5]) : 8);
    }
    if (cmd == "import" && argc >= 3) {
      return cmd_import(argv[2]);
    }
    if (cmd == "serve" && argc >= 4) {
      return cmd_serve(
          parse_platform(argv[2]), argv[3],
          argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 100,
          parse_policy(argc > 5 ? argv[5] : "powerlens"),
          argc > 6 ? static_cast<std::size_t>(std::atoll(argv[6])) : 4,
          argc > 7 ? std::atof(argv[7]) : 0.0, serve_flags);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
