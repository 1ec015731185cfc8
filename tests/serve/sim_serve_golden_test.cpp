// Pins the simulator's and the serving layer's output bytes. Every field of
// ExecutionResult that the serving layer, the journal or the benchmarks read
// is reduced to an FNV-1a digest of its hex-float text and compared with
// constants recorded before the warm request path was optimised (signature
// plan-cache keys, per-level voltage tables, LayerTiming reuse). Those
// changes must not move a single bit, so a change here is a real behaviour
// change and needs a deliberate re-baselining (DESIGN §5f).
//
// The simulator half runs alexnet, resnet152 and vgg19 on TX2 and AGX under
// the learned PowerLens plan (with the CPU ondemand governor the server
// pairs it with), pinned MAXN, BiM and FPG-G; then the plan, MAXN and FPG-G
// again under the fault_adapt benchmark's FaultSpec and under a
// thermal-heavy, failure-heavy spec; and one multi-item BiM workload for
// the item marks. A second simulator digest per platform covers runs that
// change the CPU level and revisit layers: FPG-CG with and without the
// thermal spec, and interleaved multi-item workloads on one reused engine
// (recorded before the simulator priced each layer once per level pair).
// The serve half runs one small seeded PowerLens serve
// with faults and drift adaptation plus one BiM serve, and digests their
// report JSON, journal JSONL and residual JSON bytes together with the hex
// text of every request outcome. A third serve digest covers fault-free
// plan-policy serves, where every request of a model repeats the same run:
// a PowerLens and a MAXN server each serve two seeded streams over the
// whole zoo (recorded before the workers memoized repeated runs). A fourth
// covers serves that reject and shed requests under retrying faults into a
// journal that evicts across serve() calls, at 1 and 4 workers. Both the
// auto-detected kernel dispatch path and the forced scalar path must hit
// the same constants.
#include "baselines/fpg.hpp"
#include "baselines/ondemand.hpp"
#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_spec.hpp"
#include "hw/platform.hpp"
#include "hw/sim_engine.hpp"
#include "linalg/kernels.hpp"
#include "obs/journal.hpp"
#include "obs/residuals.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::serve {
namespace {

// FNV-1a over the text of every value: doubles as C99 hex floats (exact
// bits, locale-free), integers in decimal, each followed by a separator.
class Digest {
 public:
  void text(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  void num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a;", v);
    text(buf);
  }
  void integer(long long v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld;", v);
    text(buf);
  }
  void faults(const hw::FaultCounters& f) {
    integer(static_cast<long long>(f.dvfs_failed));
    integer(static_cast<long long>(f.thermal_events));
    integer(static_cast<long long>(f.telemetry_dropped));
    integer(static_cast<long long>(f.latency_inflated));
  }
  void result(const hw::ExecutionResult& r) {
    num(r.time_s);
    num(r.energy_j);
    num(r.telemetry_energy_j);
    num(r.telemetry_mean_power_w);
    num(r.telemetry_peak_power_w);
    integer(static_cast<long long>(r.dvfs_transitions));
    num(r.dvfs_stall_s);
    num(r.thermal_throttled_s);
    integer(r.images);
    faults(r.faults);
    for (const hw::FreqTracePoint& p : r.gpu_trace) {
      num(p.time_s);
      integer(static_cast<long long>(p.gpu_level));
    }
    for (const hw::PowerSample& s : r.power_samples) {
      num(s.time_s);
      num(s.power_w);
    }
    for (const hw::WorkItemMark& m : r.item_marks) {
      num(m.end_time_s);
      num(m.end_energy_j);
      integer(m.end_images);
      integer(static_cast<long long>(m.end_transitions));
    }
  }
  void outcome(const RequestOutcome& o) {
    integer(static_cast<long long>(o.task_id));
    integer(static_cast<long long>(o.model_index));
    integer(o.admitted ? 1 : 0);
    for (const double v : {o.arrival_s, o.start_s, o.finish_s, o.service_s,
                           o.wait_s, o.energy_j, o.backoff_s,
                           o.predicted_time_s, o.predicted_energy_j,
                           o.observed_time_s, o.observed_energy_j}) {
      num(v);
    }
    integer(o.images);
    integer(static_cast<long long>(o.dvfs_transitions));
    integer(static_cast<long long>(o.retries));
    integer(o.fell_back ? 1 : 0);
    faults(o.faults);
    for (const AttemptRecord& a : o.attempts) {
      for (const double v : {a.time_s, a.energy_j, a.mean_power_w,
                             a.peak_power_w, a.dvfs_stall_s, a.throttled_s,
                             a.backoff_s}) {
        num(v);
      }
      integer(static_cast<long long>(a.dvfs_transitions));
      integer(a.degraded ? 1 : 0);
      integer(a.pinned ? 1 : 0);
      faults(a.faults);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// bench_e2e's fault_adapt hardware, and a spec that keeps the GPU ladder
// thermally capped for long stretches (effective level != requested level).
constexpr std::string_view kFaultAdaptSpec =
    "dvfs=0.05,sticky=0.2,thermal=0.02,latency=0.9,latency_x=1.6,seed=8";
constexpr std::string_view kThermalSpec =
    "dvfs=0.5,sticky=0.2,thermal=2.0,thermal_s=0.2,thermal_cap=3,"
    "telemetry=0.05,latency=0.3,latency_x=1.5,seed=42";
constexpr int kPasses = 3;

core::PowerLens* trained_framework(const hw::Platform& platform) {
  core::PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  cfg.dataset.seed = 42;
  cfg.train_hyper.epochs = 10;
  cfg.train_decision.epochs = 10;
  auto* framework = new core::PowerLens(platform, cfg);
  framework->train();
  return framework;
}

struct ScalarPathGuard {
  ScalarPathGuard() {
    linalg::kernels::set_path_override(linalg::kernels::DispatchPath::kScalar);
  }
  ~ScalarPathGuard() { linalg::kernels::set_path_override(std::nullopt); }
};

class SimServeGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tx2_ = new hw::Platform(hw::make_tx2());
    agx_ = new hw::Platform(hw::make_agx());
    tx2_framework_ = trained_framework(*tx2_);
    agx_framework_ = trained_framework(*agx_);
  }
  static void TearDownTestSuite() {
    delete agx_framework_;
    delete tx2_framework_;
    delete agx_;
    delete tx2_;
    agx_framework_ = tx2_framework_ = nullptr;
    agx_ = tx2_ = nullptr;
  }

  static std::uint64_t simulator_digest(const hw::Platform& platform,
                                        const core::PowerLens& framework) {
    hw::SimEngine engine(platform);
    const fault::FaultSpec specs[] = {fault::FaultSpec::parse(kFaultAdaptSpec),
                                      fault::FaultSpec::parse(kThermalSpec)};
    Digest d;
    std::vector<dnn::Graph> graphs;
    for (const char* name : {"alexnet", "resnet152", "vgg19"}) {
      graphs.push_back(dnn::make_model(name, 8));
    }
    for (const dnn::Graph& graph : graphs) {
      const core::OptimizationPlan plan = framework.optimize(graph);
      baselines::OndemandGovernor cpu_governor;
      hw::RunPolicy planned = engine.default_policy();
      planned.schedule = &plan.schedule;
      planned.governor = &cpu_governor;
      d.result(engine.run(graph, kPasses, planned));

      d.result(engine.run(graph, kPasses, engine.default_policy()));

      baselines::OndemandGovernor bim;
      hw::RunPolicy reactive = engine.default_policy();
      reactive.governor = &bim;
      d.result(engine.run(graph, kPasses, reactive));

      baselines::FpgGovernor fpg_g(baselines::FpgMode::kGpuOnly);
      reactive.governor = &fpg_g;
      d.result(engine.run(graph, kPasses, reactive));

      // Faults under the plan, pinned MAXN and FPG-G: the plans sit below
      // the thermal cap, MAXN does not, so it throttles; FPG-G's hill climb
      // requests the most transitions, so it meets actuation failures.
      for (const fault::FaultSpec& spec : specs) {
        for (hw::RunPolicy faulty :
             {planned, engine.default_policy(), reactive}) {
          fault::FaultInjector injector(
              spec, fault::request_fault_seed(spec.seed, 0, 0));
          faulty.faults = &injector;
          d.result(engine.run(graph, kPasses, faulty));
        }
      }
    }
    std::vector<hw::WorkItem> items;
    for (const dnn::Graph& graph : graphs) items.push_back({&graph, 2});
    baselines::OndemandGovernor bim;
    hw::RunPolicy reactive = engine.default_policy();
    reactive.governor = &bim;
    d.result(engine.run_workload(items, reactive));
    return d.value();
  }

  // Runs that move the CPU level and the effective GPU level mid-pass and
  // revisit layers across passes and work items: FPG-CG, whose hill climb
  // drives the CPU ladder, fault-free and under the thermal-heavy spec; and
  // interleaved multi-item workloads (two graphs, several passes each)
  // under FPG-CG and BiM, all run back to back on one reused engine.
  static std::uint64_t cpu_level_digest(const hw::Platform& platform) {
    hw::SimEngine engine(platform);
    const fault::FaultSpec thermal = fault::FaultSpec::parse(kThermalSpec);
    Digest d;
    std::vector<dnn::Graph> graphs;
    for (const char* name : {"alexnet", "resnet152", "vgg19"}) {
      graphs.push_back(dnn::make_model(name, 8));
    }
    for (const dnn::Graph& graph : graphs) {
      baselines::FpgGovernor fpg_cg(baselines::FpgMode::kCpuGpu);
      hw::RunPolicy reactive = engine.default_policy();
      reactive.governor = &fpg_cg;
      d.result(engine.run(graph, kPasses, reactive));
      fault::FaultInjector injector(
          thermal, fault::request_fault_seed(thermal.seed, 0, 0));
      reactive.faults = &injector;
      d.result(engine.run(graph, kPasses, reactive));
    }
    const std::vector<hw::WorkItem> items = {
        {&graphs[0], 3}, {&graphs[1], 2}, {&graphs[0], 4}, {&graphs[1], 3}};
    baselines::FpgGovernor fpg_cg(baselines::FpgMode::kCpuGpu);
    baselines::OndemandGovernor bim;
    for (hw::Governor* governor :
         std::initializer_list<hw::Governor*>{&fpg_cg, &bim}) {
      hw::RunPolicy reactive = engine.default_policy();
      reactive.governor = governor;
      d.result(engine.run_workload(items, reactive));
    }
    return d.value();
  }

  static std::uint64_t serve_digest() {
    std::vector<DeployedModel> models;
    for (const char* name : {"alexnet", "resnet34", "googlenet", "vgg19"}) {
      models.push_back({name, dnn::make_model(name, 10)});
    }
    RequestStreamConfig stream;
    stream.seed = 7;
    stream.num_tasks = 24;
    stream.images_per_task = 20;
    stream.batch = 10;
    stream.arrivals = ArrivalProcess::kPoisson;
    stream.arrival_rate_hz = 1.0;
    stream.deadline_s = 3.0;

    Digest d;
    for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                     ServePolicy::kBiM}) {
      ServerConfig cfg;
      cfg.policy = policy;
      cfg.num_workers = 2;
      cfg.faults = fault::FaultSpec::parse(kFaultAdaptSpec);
      obs::Journal journal;
      obs::Residuals residuals;
      cfg.journal = &journal;
      cfg.residuals = &residuals;
      if (policy == ServePolicy::kPowerLens) {
        cfg.adapt_enabled = true;
        cfg.adapt_epoch_tasks = 8;
      }
      Server server(*tx2_, models, cfg, tx2_framework_);
      const ServeReport report =
          server.serve(RequestStream(models.size(), stream));
      std::ostringstream json;
      report.write_json(json);
      d.text(json.str());
      d.text(journal.jsonl());
      d.text(residuals.json());
      for (const RequestOutcome& o : report.outcomes) d.outcome(o);
    }
    return d.value();
  }

  // Fault-free, untraced PowerLens and MAXN serves over all 12 zoo models,
  // two workers, two streams per server (2 then 3 passes per request), so
  // every model is requested several times per serve() call and again in
  // the next call.
  static std::uint64_t repeated_serve_digest() {
    std::vector<DeployedModel> models;
    for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
      models.push_back({std::string(spec.name), spec.build(10)});
    }
    Digest d;
    for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                     ServePolicy::kMaxn}) {
      ServerConfig cfg;
      cfg.policy = policy;
      cfg.num_workers = 2;
      obs::Journal journal;
      obs::Residuals residuals;
      cfg.journal = &journal;
      cfg.residuals = &residuals;
      Server server(*tx2_, models, cfg,
                    policy == ServePolicy::kPowerLens ? tx2_framework_
                                                      : nullptr);
      for (const int images : {20, 30}) {
        RequestStreamConfig stream;
        stream.seed = 11;
        stream.num_tasks = 96;
        stream.images_per_task = images;
        stream.batch = 10;
        stream.arrivals = ArrivalProcess::kPoisson;
        stream.arrival_rate_hz = 4.0;
        stream.deadline_s = 2.0;
        const std::vector<Task> tasks =
            RequestStream(models.size(), stream).generate();
        std::vector<int> per_model(models.size(), 0);
        for (const Task& task : tasks) ++per_model[task.model_index];
        for (const int n : per_model) EXPECT_GE(n, 3);
        const ServeReport report = server.serve(tasks);
        std::ostringstream json;
        report.write_json(json);
        d.text(json.str());
        for (const RequestOutcome& o : report.outcomes) d.outcome(o);
      }
      d.text(journal.jsonl());
      d.text(residuals.json());
    }
    return d.value();
  }

  // Plan-policy serves that reject and shed: admission capacity 3 and
  // deadline shedding under the thermal-heavy, failure-heavy spec (so
  // PowerLens retries and falls back), PowerLens and MAXN, three streams per
  // server into one capacity-64 journal, so the exported window evicts
  // across serve() calls; all of it at 1 and then 4 workers (recorded before
  // the fold journaled attempt records).
  static std::uint64_t rejected_and_shed_serve_digest() {
    std::vector<DeployedModel> models;
    for (const char* name : {"alexnet", "resnet34", "googlenet", "vgg19"}) {
      models.push_back({name, dnn::make_model(name, 10)});
    }
    Digest d;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t retries = 0;
    for (const std::size_t workers : {1u, 4u}) {
      for (const ServePolicy policy : {ServePolicy::kPowerLens,
                                       ServePolicy::kMaxn}) {
        ServerConfig cfg;
        cfg.policy = policy;
        cfg.num_workers = workers;
        cfg.admission_capacity = 3;
        cfg.degrade.shed_doomed = true;
        cfg.faults = fault::FaultSpec::parse(kThermalSpec);
        obs::Journal journal(/*capacity=*/64);
        obs::Residuals residuals;
        cfg.journal = &journal;
        cfg.residuals = &residuals;
        Server server(*tx2_, models, cfg,
                      policy == ServePolicy::kPowerLens ? tx2_framework_
                                                        : nullptr);
        for (const std::uint64_t seed : {3u, 4u, 5u}) {
          RequestStreamConfig stream;
          stream.seed = seed;
          stream.num_tasks = 24;
          stream.images_per_task = 20;
          stream.batch = 10;
          stream.arrivals = ArrivalProcess::kPoisson;
          stream.arrival_rate_hz = 2.0;
          stream.deadline_s = 1.5;
          const ServeReport report =
              server.serve(RequestStream(models.size(), stream));
          rejected += report.rejected;
          shed += report.shed;
          retries += report.retries;
          std::ostringstream json;
          report.write_json(json);
          d.text(json.str());
          for (const RequestOutcome& o : report.outcomes) d.outcome(o);
        }
        EXPECT_GT(journal.appended(), journal.capacity());
        d.text(journal.jsonl());
        d.text(residuals.json());
      }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_GT(retries, 0u);
    return d.value();
  }

  static void expect_recorded_digests() {
    EXPECT_EQ(simulator_digest(*tx2_, *tx2_framework_), kTx2SimDigest);
    EXPECT_EQ(simulator_digest(*agx_, *agx_framework_), kAgxSimDigest);
    EXPECT_EQ(serve_digest(), kServeDigest);
    EXPECT_EQ(cpu_level_digest(*tx2_), kTx2CpuLevelDigest);
    EXPECT_EQ(cpu_level_digest(*agx_), kAgxCpuLevelDigest);
  }

  // Recorded before the warm request path was optimised.
  static constexpr std::uint64_t kTx2SimDigest = 0x70b352dafd6109b2ULL;
  static constexpr std::uint64_t kAgxSimDigest = 0xa849af457f61e32bULL;
  static constexpr std::uint64_t kServeDigest = 0x366b9809db0cc15bULL;
  // Recorded before the simulator priced each layer once per level pair.
  static constexpr std::uint64_t kTx2CpuLevelDigest = 0x08d672001fd1f091ULL;
  static constexpr std::uint64_t kAgxCpuLevelDigest = 0x6120efe2b4d7a596ULL;
  // Recorded before the serving workers memoized repeated fault-free runs.
  static constexpr std::uint64_t kRepeatedServeDigest = 0xf1418de1d266fb38ULL;
  // Recorded before the fold journaled attempt records.
  static constexpr std::uint64_t kRejectedAndShedServeDigest =
      0x179b13efb42f7d01ULL;

  static hw::Platform* tx2_;
  static hw::Platform* agx_;
  static core::PowerLens* tx2_framework_;
  static core::PowerLens* agx_framework_;
};

hw::Platform* SimServeGolden::tx2_ = nullptr;
hw::Platform* SimServeGolden::agx_ = nullptr;
core::PowerLens* SimServeGolden::tx2_framework_ = nullptr;
core::PowerLens* SimServeGolden::agx_framework_ = nullptr;

TEST_F(SimServeGolden, DigestsMatchRecordedOnAutoPath) {
  expect_recorded_digests();
}

TEST_F(SimServeGolden, DigestsMatchRecordedOnScalarPath) {
  const ScalarPathGuard guard;
  expect_recorded_digests();
}

TEST_F(SimServeGolden, RepeatedServeDigestMatchesRecordedOnAutoPath) {
  EXPECT_EQ(repeated_serve_digest(), kRepeatedServeDigest);
}

TEST_F(SimServeGolden, RepeatedServeDigestMatchesRecordedOnScalarPath) {
  const ScalarPathGuard guard;
  EXPECT_EQ(repeated_serve_digest(), kRepeatedServeDigest);
}

TEST_F(SimServeGolden, RejectedAndShedServeDigestMatchesRecordedOnAutoPath) {
  EXPECT_EQ(rejected_and_shed_serve_digest(), kRejectedAndShedServeDigest);
}

TEST_F(SimServeGolden,
       RejectedAndShedServeDigestMatchesRecordedOnScalarPath) {
  const ScalarPathGuard guard;
  EXPECT_EQ(rejected_and_shed_serve_digest(), kRejectedAndShedServeDigest);
}

}  // namespace
}  // namespace powerlens::serve
