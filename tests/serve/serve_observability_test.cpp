// Serving-path observability: the per-request journal, predicted-vs-observed
// residual accounting, and trace spans added by the observability PR.
//
//  - The journal JSONL and the residual JSON snapshot are byte-identical
//    across host worker counts (1/4/8) and across kernel dispatch paths —
//    the exports inherit the serving layer's determinism contract.
//  - Journal records parse as strict JSON and carry the full story of a
//    faulty serve: the serve_begin header, one request record per task with
//    plan provenance and residual fields, and per-attempt records whose
//    retry/fallback annotations match the report.
//  - SLO accounting (goodput, deadline burn rate) and the residual summary
//    behave at the report level.
#include "serve/server.hpp"

#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "fault/fault_spec.hpp"
#include "linalg/kernels.hpp"
#include "obs/journal.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace powerlens::serve {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

constexpr std::int64_t kBatch = 10;
constexpr std::size_t kTasks = 12;

// Pins the kernel dispatch path for one scope (mirrors the linalg tests).
class PathGuard {
 public:
  explicit PathGuard(linalg::kernels::DispatchPath path) {
    linalg::kernels::set_path_override(path);
  }
  ~PathGuard() { linalg::kernels::set_path_override(std::nullopt); }
};

class ServeObservabilityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    core::PowerLensConfig cfg;
    cfg.dataset.num_networks = 40;
    cfg.dataset.seed = 5;
    cfg.train_hyper.epochs = 20;
    cfg.train_decision.epochs = 20;
    framework_ = new core::PowerLens(*platform_, cfg);
    framework_->train();

    models_ = new std::vector<DeployedModel>;
    for (const char* name : {"alexnet", "mobilenet_v3", "googlenet"}) {
      models_->push_back({name, dnn::make_model(name, kBatch)});
    }
  }
  static void TearDownTestSuite() {
    delete models_;
    delete framework_;
    delete platform_;
    models_ = nullptr;
    framework_ = nullptr;
    platform_ = nullptr;
  }

  static RequestStreamConfig stream_config() {
    RequestStreamConfig cfg;
    cfg.seed = 7;
    cfg.num_tasks = kTasks;
    cfg.images_per_task = 20;  // 2 passes per task
    cfg.batch = kBatch;
    return cfg;
  }

  static fault::FaultSpec chaos_spec() {
    return fault::FaultSpec::parse(
        "dvfs=0.1,sticky=0.2,thermal=0.5,thermal_s=0.2,thermal_cap=3,"
        "telemetry=0.05,latency=0.05,latency_x=1.5,seed=42");
  }

  // 100% DVFS-actuation failure: every planned run degrades, retries burn
  // out, and the pinned fallback finishes the job — the richest journal.
  static fault::FaultSpec fallback_spec() {
    fault::FaultSpec spec;
    spec.seed = 9;
    spec.dvfs_fail_rate = 1.0;
    return spec;
  }

  static ServeReport serve_with(ServerConfig cfg,
                                const RequestStreamConfig* stream = nullptr) {
    Server server(*platform_, *models_, cfg, framework_);
    const RequestStreamConfig scfg =
        stream != nullptr ? *stream : stream_config();
    return server.serve(RequestStream(models_->size(), scfg));
  }

  static ServerConfig config_with(ServePolicy policy, std::size_t workers,
                                  const fault::FaultSpec& faults,
                                  obs::Journal* journal = nullptr,
                                  obs::Residuals* residuals = nullptr) {
    ServerConfig cfg;
    cfg.policy = policy;
    cfg.num_workers = workers;
    cfg.faults = faults;
    cfg.journal = journal;
    cfg.residuals = residuals;
    return cfg;
  }

  static std::vector<JsonValue> parsed_lines(const std::string& jsonl) {
    std::vector<JsonValue> out;
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) out.push_back(JsonParser(line).parse());
    return out;
  }

  static hw::Platform* platform_;
  static core::PowerLens* framework_;
  static std::vector<DeployedModel>* models_;
};

hw::Platform* ServeObservabilityTest::platform_ = nullptr;
core::PowerLens* ServeObservabilityTest::framework_ = nullptr;
std::vector<DeployedModel>* ServeObservabilityTest::models_ = nullptr;

// --- the acceptance criterion: exports invariant to host parallelism ---

TEST_F(ServeObservabilityTest, JournalBytesInvariantToWorkerCount) {
  obs::Journal j1, j4, j8;
  serve_with(config_with(ServePolicy::kPowerLens, 1, chaos_spec(), &j1));
  serve_with(config_with(ServePolicy::kPowerLens, 4, chaos_spec(), &j4));
  serve_with(config_with(ServePolicy::kPowerLens, 8, chaos_spec(), &j8));
  ASSERT_GT(j1.appended(), kTasks);  // header + requests + attempts
  EXPECT_EQ(j1.jsonl(), j4.jsonl());
  EXPECT_EQ(j1.jsonl(), j8.jsonl());
}

TEST_F(ServeObservabilityTest, ResidualSnapshotInvariantToWorkerCount) {
  obs::Residuals r1, r4, r8;
  serve_with(
      config_with(ServePolicy::kPowerLens, 1, chaos_spec(), nullptr, &r1));
  serve_with(
      config_with(ServePolicy::kPowerLens, 4, chaos_spec(), nullptr, &r4));
  serve_with(
      config_with(ServePolicy::kPowerLens, 8, chaos_spec(), nullptr, &r8));
  ASSERT_EQ(r1.scored(), kTasks);
  EXPECT_EQ(r1.json(), r4.json());
  EXPECT_EQ(r1.json(), r8.json());
}

TEST_F(ServeObservabilityTest, JournalBytesInvariantToDispatchPath) {
  // The plan pipeline's kernels promise bitwise-identical math on every
  // dispatch path, so the journal — plans, simulated runs, residuals and
  // all — must not change when the SIMD path does.
  obs::Journal native, scalar;
  serve_with(
      config_with(ServePolicy::kPowerLens, 4, chaos_spec(), &native));
  {
    PathGuard guard(linalg::kernels::DispatchPath::kScalar);
    serve_with(
        config_with(ServePolicy::kPowerLens, 4, chaos_spec(), &scalar));
  }
  ASSERT_GT(native.appended(), 0u);
  EXPECT_EQ(native.jsonl(), scalar.jsonl());
}

// --- journal content: the full story of a faulty serve ---

TEST_F(ServeObservabilityTest, JournalRecordsTellTheRetryFallbackStory) {
  obs::Journal journal;
  obs::Residuals residuals;
  const ServeReport report = serve_with(config_with(
      ServePolicy::kPowerLens, 4, fallback_spec(), &journal, &residuals));
  ASSERT_GT(report.fallbacks, 0u);
  ASSERT_GT(report.retries, 0u);

  const std::vector<JsonValue> lines = parsed_lines(journal.jsonl());
  ASSERT_GT(lines.size(), 2u);

  // Sorted export: the run header comes first, the meta trailer last.
  const auto& header = lines.front().object();
  EXPECT_EQ(header.at("event").string(), "serve_begin");
  EXPECT_EQ(header.at("policy").string(), "PowerLens");
  EXPECT_EQ(header.at("platform").string(), platform_->name);
  EXPECT_EQ(header.at("tasks").number(), static_cast<double>(kTasks));
  EXPECT_NE(header.at("faults").string().find("dvfs=1"), std::string::npos);
  EXPECT_EQ(lines.back().object().at("event").string(), "journal_meta");

  std::size_t requests = 0;
  std::size_t attempts = 0;
  std::size_t retried_attempts = 0;  // attempt index >= 1
  std::size_t faulted_attempts = 0;
  std::size_t pinned_attempts = 0;
  std::size_t fell_back_requests = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const auto& o = lines[i].object();
    const std::string& event = o.at("event").string();
    if (event == "request") {
      ++requests;
      EXPECT_EQ(o.at("outcome").string(), "served");
      EXPECT_FALSE(o.at("model").string().empty());
      EXPECT_TRUE(o.count("plan_signature"));
      EXPECT_TRUE(o.count("retries"));
      EXPECT_TRUE(o.at("predicted_time_s").is_number());
      EXPECT_TRUE(o.at("latency_residual").is_number());
      if (o.at("fell_back").boolean()) ++fell_back_requests;
    } else if (event == "attempt") {
      ++attempts;
      if (o.at("attempt").number() >= 1.0) ++retried_attempts;
      if (o.at("faults").string() != "none") ++faulted_attempts;
      if (o.at("pinned").boolean()) {
        ++pinned_attempts;
        EXPECT_FALSE(o.at("degraded").boolean());  // immune to DVFS faults
      }
    }
  }
  EXPECT_EQ(requests, kTasks);
  EXPECT_GT(attempts, kTasks);  // retries + fallbacks add attempts
  EXPECT_GT(retried_attempts, 0u);
  EXPECT_GT(faulted_attempts, 0u);
  EXPECT_EQ(fell_back_requests, report.fallbacks);
  EXPECT_EQ(pinned_attempts, report.fallbacks);  // one pinned run each
}

TEST_F(ServeObservabilityTest, AttemptLogMatchesOutcomeAccounting) {
  const ServeReport report =
      serve_with(config_with(ServePolicy::kPowerLens, 4, fallback_spec()));
  for (const RequestOutcome& out : report.outcomes) {
    ASSERT_FALSE(out.attempts.empty());
    // Every degraded attempt counts as a retry (the last one triggers the
    // pinned fallback instead of a planned re-run), and exactly one
    // non-degraded attempt — the accepted one — ends the request.
    EXPECT_EQ(out.attempts.size(), out.retries + 1);
    const AttemptRecord& accepted = out.attempts.back();
    EXPECT_FALSE(accepted.degraded);
    EXPECT_EQ(accepted.pinned, out.fell_back);
    EXPECT_EQ(out.observed_time_s, accepted.time_s);
    EXPECT_EQ(out.observed_energy_j, accepted.energy_j);
    // Every attempt before the accepted one degraded and was retried.
    double backoff = 0.0;
    hw::FaultCounters faults;
    for (std::size_t a = 0; a + 1 < out.attempts.size(); ++a) {
      EXPECT_TRUE(out.attempts[a].degraded);
      backoff += out.attempts[a].backoff_s;
    }
    for (const AttemptRecord& rec : out.attempts) faults += rec.faults;
    EXPECT_EQ(backoff, out.backoff_s);
    EXPECT_TRUE(faults == out.faults);
  }
}

TEST_F(ServeObservabilityTest, PlanColdMarksFirstTaskOrderOccurrence) {
  const ServeReport report = serve_with(
      config_with(ServePolicy::kPowerLens, 4, fault::FaultSpec{}));
  std::map<std::size_t, std::uint64_t> sig_by_model;
  for (const RequestOutcome& out : report.outcomes) {
    ASSERT_NE(out.plan_signature, 0u) << "task " << out.task_id;
    const bool first = sig_by_model.count(out.model_index) == 0;
    EXPECT_EQ(out.plan_cold, first) << "task " << out.task_id;
    if (first) {
      sig_by_model[out.model_index] = out.plan_signature;
    } else {
      // Same model -> same plan signature, every time.
      EXPECT_EQ(out.plan_signature, sig_by_model[out.model_index]);
    }
  }
  // Distinct models hash to distinct signatures.
  EXPECT_EQ(sig_by_model.size(), models_->size());
  std::vector<std::uint64_t> sigs;
  for (const auto& [model, sig] : sig_by_model) sigs.push_back(sig);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    for (std::size_t j = i + 1; j < sigs.size(); ++j) {
      EXPECT_NE(sigs[i], sigs[j]);
    }
  }
}

// --- predicted-vs-observed accounting ---

TEST_F(ServeObservabilityTest, CleanPlanServeScoresEveryRequest) {
  obs::Residuals residuals;
  const ServeReport report = serve_with(config_with(
      ServePolicy::kPowerLens, 4, fault::FaultSpec{}, nullptr, &residuals));
  EXPECT_EQ(report.residual_scored, report.admitted);
  EXPECT_EQ(residuals.scored(), report.admitted);
  EXPECT_TRUE(std::isfinite(report.latency_residual_mean));
  EXPECT_TRUE(std::isfinite(report.energy_residual_mean));
  for (const RequestOutcome& out : report.outcomes) {
    EXPECT_GT(out.predicted_time_s, 0.0);
    EXPECT_GT(out.predicted_energy_j, 0.0);
    EXPECT_GT(out.observed_time_s, 0.0);
    EXPECT_DOUBLE_EQ(out.latency_residual,
                     (out.observed_time_s - out.predicted_time_s) /
                         out.predicted_time_s);
    EXPECT_DOUBLE_EQ(out.energy_residual,
                     (out.observed_energy_j - out.predicted_energy_j) /
                         out.predicted_energy_j);
  }
  // Plan-policy requests score their signature series too.
  EXPECT_NE(residuals.json().find("PowerLens/alexnet/0x"), std::string::npos);
}

TEST_F(ServeObservabilityTest, MaxnScoresAgainstAnalyticCost) {
  obs::Residuals residuals;
  const ServeReport report = serve_with(config_with(
      ServePolicy::kMaxn, 4, fault::FaultSpec{}, nullptr, &residuals));
  EXPECT_EQ(report.residual_scored, report.admitted);
  for (const DeployedModel& m : *models_) {
    EXPECT_GT(residuals.by_model("MAXN", m.name).latency.count, 0u) << m.name;
  }
  // No plan, no signature series: MAXN keys stay model-level.
  EXPECT_EQ(residuals.json().find("MAXN/alexnet/0x"), std::string::npos);
  for (const RequestOutcome& out : report.outcomes) {
    EXPECT_EQ(out.plan_signature, 0u);
    EXPECT_TRUE(std::isfinite(out.latency_residual));
    for (const AttemptRecord& rec : out.attempts) {
      EXPECT_TRUE(rec.pinned);  // MAXN always runs pinned
    }
  }
}

TEST_F(ServeObservabilityTest, FallenBackRequestsScoreModelLevelOnly) {
  obs::Residuals residuals;
  const ServeReport report = serve_with(config_with(
      ServePolicy::kPowerLens, 4, fallback_spec(), nullptr, &residuals));
  ASSERT_GT(report.fallbacks, 0u);
  // Every admitted request still scores (the fallback swaps the predictor
  // to the analytic pinned cost; availability faults are not model error).
  EXPECT_EQ(report.residual_scored, report.admitted);
  std::uint64_t signature_scores = 0;
  const JsonValue root = JsonParser(residuals.json()).parse();
  for (const auto& [key, stats] : root.object().at("signatures").object()) {
    signature_scores +=
        static_cast<std::uint64_t>(
            stats.object().at("latency").object().at("count").number());
  }
  std::size_t planned_requests = 0;
  for (const RequestOutcome& out : report.outcomes) {
    if (!out.fell_back) ++planned_requests;
  }
  EXPECT_EQ(signature_scores, planned_requests);
}

TEST_F(ServeObservabilityTest, DisabledInstrumentationLeavesSinksUntouched) {
  obs::Journal journal;
  obs::Residuals residuals;
  ServerConfig cfg = config_with(ServePolicy::kPowerLens, 4, chaos_spec(),
                                 &journal, &residuals);
  cfg.journal_enabled = false;
  cfg.residuals_enabled = false;
  const ServeReport report = serve_with(cfg);
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(residuals.scored(), 0u);
  // The report's own accounting is computed in the fold either way.
  EXPECT_EQ(report.residual_scored, report.admitted);
}

// A long-lived journal stays within twice its capacity however many
// serve() calls (each with fresh worker threads) append to it, and its
// export does not depend on the worker count.
TEST_F(ServeObservabilityTest, RepeatedServesKeepTheJournalBounded) {
  constexpr std::size_t kServes = 40;
  constexpr std::size_t kCapacity = 256;
  obs::Journal j1(kCapacity);
  obs::Journal j4(kCapacity);
  for (const std::size_t workers : {1u, 4u}) {
    obs::Journal& journal = workers == 1 ? j1 : j4;
    Server server(*platform_, *models_,
                  config_with(ServePolicy::kMaxn, workers, {}, &journal),
                  framework_);
    RequestStreamConfig stream = stream_config();
    stream.num_tasks = 200;
    for (std::size_t call = 0; call < kServes; ++call) {
      server.serve(RequestStream(models_->size(), stream));
      ASSERT_LE(journal.resident(), 2 * journal.capacity())
          << workers << " workers, after serve " << call;
    }
  }
  EXPECT_EQ(j4.appended(), j1.appended());
  EXPECT_EQ(j4.jsonl(), j1.jsonl());
}

// --- trace spans: retry/fallback annotations on the device track ---

TEST_F(ServeObservabilityTest, TraceAnnotatesAttemptsBackoffAndFallback) {
  const std::string path =
      ::testing::TempDir() + "serve_observability_trace.json";
  obs::TraceWriter trace;
  ASSERT_TRUE(trace.open(path));
  ServerConfig cfg = config_with(ServePolicy::kPowerLens, 4, fallback_spec());
  cfg.trace = &trace;
  const ServeReport report = serve_with(cfg);
  ASSERT_GT(report.retries, 0u);
  trace.close();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // Nested attempt spans with their fault/pinned annotations...
  EXPECT_NE(text.find("\"name\":\"attempt\""), std::string::npos);
  EXPECT_NE(text.find("\"faults\":\"dvfs:"), std::string::npos);
  EXPECT_NE(text.find("\"pinned\":1"), std::string::npos);
  // ...backoff gaps between retries...
  EXPECT_NE(text.find("\"name\":\"backoff\""), std::string::npos);
  // ...request-level retry/fallback args on the model span...
  EXPECT_NE(text.find("\"retries\":"), std::string::npos);
  EXPECT_NE(text.find("\"fell_back\":1"), std::string::npos);
  // ...and async queue-wait spans on the named wait track.
  EXPECT_NE(text.find("\"name\":\"wait\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
}

// --- SLO accounting ---

TEST_F(ServeObservabilityTest, SloAccountingFollowsDeadlines) {
  // No deadlines: every admitted image is goodput, burn rate undefined.
  const ServeReport plain = serve_with(
      config_with(ServePolicy::kPowerLens, 4, fault::FaultSpec{}));
  EXPECT_EQ(plain.goodput_images, plain.images);
  EXPECT_TRUE(std::isnan(plain.deadline_burn_rate));

  // Generous deadlines: all met, burn rate exactly zero.
  RequestStreamConfig generous = stream_config();
  generous.deadline_s = 1e9;
  const ServeReport met = serve_with(
      config_with(ServePolicy::kPowerLens, 4, fault::FaultSpec{}), &generous);
  EXPECT_EQ(met.deadline_misses, 0u);
  EXPECT_EQ(met.deadline_burn_rate, 0.0);
  EXPECT_EQ(met.goodput_images, met.images);

  // Unmeetable deadlines without shedding: everything runs, everything
  // misses — zero goodput at full energy cost, burn rate saturated.
  RequestStreamConfig doomed = stream_config();
  doomed.deadline_s = 1e-6;
  const ServeReport missed = serve_with(
      config_with(ServePolicy::kPowerLens, 4, fault::FaultSpec{}), &doomed);
  EXPECT_EQ(missed.admitted, kTasks);
  EXPECT_EQ(missed.deadline_misses, kTasks);
  EXPECT_EQ(missed.deadline_burn_rate, 1.0);
  EXPECT_EQ(missed.goodput_images, 0);
  EXPECT_GT(missed.images, 0);
}

}  // namespace
}  // namespace powerlens::serve
