#include "obs/residuals.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace powerlens::obs {

namespace {

// Valid prediction/observation pair -> relative residual; otherwise NaN.
double relative_residual(double predicted, double observed) noexcept {
  if (!std::isfinite(predicted) || predicted <= 0.0 ||
      !std::isfinite(observed)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return (observed - predicted) / predicted;
}

std::string signature_key(std::string_view policy, std::string_view model,
                          std::uint64_t sig) {
  std::string key;
  key.reserve(policy.size() + model.size() + 20);
  key.append(policy).append("/").append(model).append("/").append(
      hex_signature(sig));
  return key;
}

}  // namespace

std::span<const double> Residuals::bucket_bounds() noexcept {
  static constexpr double kBounds[] = {-0.5,  -0.25, -0.1, -0.05,
                                       -0.02, 0.0,   0.02, 0.05,
                                       0.1,   0.25,  0.5,  1.0};
  static_assert(sizeof(kBounds) / sizeof(kBounds[0]) + 1 == kBuckets);
  return kBounds;
}

Residuals::Residuals() : Residuals(Config{}) {}

Residuals::Residuals(Config config) : config_(config) {}

namespace {

void update_series(Residuals::Series& s, double r, double alpha) {
  const std::span<const double> bounds = Residuals::bucket_bounds();
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), r) - bounds.begin());
  s.ewma = s.count == 0 ? r : alpha * r + (1.0 - alpha) * s.ewma;
  ++s.count;
  s.sum += r;
  s.sum_abs += std::fabs(r);
  s.max_abs = std::max(s.max_abs, std::fabs(r));
  ++s.hist[bucket];
}

}  // namespace

void Residuals::update(Stats& stats, double latency_residual,
                       bool score_latency, double energy_residual,
                       bool score_energy) {
  if (score_latency) {
    update_series(stats.latency, latency_residual, config_.ewma_alpha);
  }
  if (score_energy) {
    update_series(stats.energy, energy_residual, config_.ewma_alpha);
  }
}

bool Residuals::drifting(const Stats& stats) const noexcept {
  const auto over = [&](const Series& s) {
    return s.count > 0 && std::fabs(s.ewma) > config_.drift_threshold;
  };
  return over(stats.latency) || over(stats.energy);
}

void Residuals::record(std::string_view policy, std::string_view model,
                       std::uint64_t plan_signature, double predicted_time_s,
                       double observed_time_s, double predicted_energy_j,
                       double observed_energy_j) {
  const double lat = relative_residual(predicted_time_s, observed_time_s);
  const double en = relative_residual(predicted_energy_j, observed_energy_j);
  const bool score_lat = std::isfinite(lat);
  const bool score_en = std::isfinite(en);
  if (!score_lat && !score_en) return;

  std::string model_key;
  model_key.reserve(policy.size() + model.size() + 1);
  model_key.append(policy).append("/").append(model);

  std::lock_guard<std::mutex> lock(mu_);
  ++scored_;
  update(overall_, lat, score_lat, en, score_en);
  update(by_model_[model_key], lat, score_lat, en, score_en);
  if (plan_signature != 0) {
    update(by_signature_[signature_key(policy, model, plan_signature)], lat,
           score_lat, en, score_en);
  }
}

Residuals::Stats Residuals::by_model(std::string_view policy,
                                     std::string_view model) const {
  std::string key;
  key.reserve(policy.size() + model.size() + 1);
  key.append(policy).append("/").append(model);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_model_.find(key);
  return it != by_model_.end() ? it->second : Stats{};
}

Residuals::Stats Residuals::by_signature(std::string_view policy,
                                         std::string_view model,
                                         std::uint64_t plan_signature) const {
  const std::string key = signature_key(policy, model, plan_signature);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_signature_.find(key);
  return it != by_signature_.end() ? it->second : Stats{};
}

Residuals::Stats Residuals::overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overall_;
}

std::uint64_t Residuals::scored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scored_;
}

Residuals::DriftCounts Residuals::drift_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftCounts counts;
  for (const auto& [key, stats] : by_model_) {
    if (drifting(stats)) ++counts.models;
  }
  for (const auto& [key, stats] : by_signature_) {
    if (drifting(stats)) ++counts.signatures;
  }
  return counts;
}

namespace {

// Splits "policy/model" (first '/') or "policy/model/0x<16 hex>" (the fixed
// 18-character signature suffix appended by signature_key) back into parts.
// Model names may themselves contain '/', so the signature suffix is peeled
// off the end, never searched from the front.
void split_key(const std::string& key, bool has_signature,
               Residuals::KeySnapshot& out) {
  std::string_view rest = key;
  if (has_signature) {
    constexpr std::size_t kSuffix = 19;  // "/0x" + 16 hex digits
    if (rest.size() > kSuffix) {
      const std::string_view hex = rest.substr(rest.size() - 16);
      std::uint64_t sig = 0;
      std::from_chars(hex.data(), hex.data() + hex.size(), sig, 16);
      out.signature = sig;
      rest = rest.substr(0, rest.size() - kSuffix);
    }
  }
  const std::size_t slash = rest.find('/');
  out.policy = std::string(rest.substr(0, slash));
  out.model = slash == std::string_view::npos
                  ? std::string()
                  : std::string(rest.substr(slash + 1));
}

}  // namespace

std::vector<Residuals::KeySnapshot> Residuals::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<KeySnapshot> out;
  out.reserve(by_model_.size() + by_signature_.size());
  for (const auto& [key, stats] : by_model_) {
    KeySnapshot snap;
    split_key(key, /*has_signature=*/false, snap);
    snap.stats = stats;
    snap.drifting = drifting(stats);
    out.push_back(std::move(snap));
  }
  for (const auto& [key, stats] : by_signature_) {
    KeySnapshot snap;
    split_key(key, /*has_signature=*/true, snap);
    snap.stats = stats;
    snap.drifting = drifting(stats);
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

void append_series(std::string& out, const Residuals::Series& s,
                   double drift_threshold) {
  out += "{\"count\": ";
  append_json_number(out, static_cast<double>(s.count));
  out += ", \"mean\": ";
  append_json_number(out, s.mean());
  out += ", \"mean_abs\": ";
  append_json_number(out, s.mean_abs());
  out += ", \"max_abs\": ";
  append_json_number(out, s.max_abs);
  out += ", \"ewma\": ";
  append_json_number(out, s.ewma);
  out += ", \"drift\": ";
  out += (s.count > 0 && std::fabs(s.ewma) > drift_threshold) ? "true"
                                                              : "false";
  out += ", \"hist\": [";
  for (std::size_t i = 0; i < s.hist.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_number(out, static_cast<double>(s.hist[i]));
  }
  out += "]}";
}

void append_stats(std::string& out, const Residuals::Stats& stats,
                  double drift_threshold) {
  out += "{\"latency\": ";
  append_series(out, stats.latency, drift_threshold);
  out += ", \"energy\": ";
  append_series(out, stats.energy, drift_threshold);
  out += "}";
}

void append_key_section(std::string& out, std::string_view name,
                        const std::map<std::string, Residuals::Stats>& keys,
                        double drift_threshold) {
  out += "  \"";
  out += name;
  out += "\": {";
  bool first = true;
  for (const auto& [key, stats] : keys) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, key);
    out += "\": ";
    append_stats(out, stats, drift_threshold);
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

void Residuals::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"config\": {\"ewma_alpha\": ";
  append_json_number(out, config_.ewma_alpha);
  out += ", \"drift_threshold\": ";
  append_json_number(out, config_.drift_threshold);
  out += ", \"bounds\": [";
  const std::span<const double> bounds = bucket_bounds();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_number(out, bounds[i]);
  }
  out += "]},\n  \"scored\": ";
  append_json_number(out, static_cast<double>(scored_));
  // Model- and signature-level drift reported separately (a drifting model
  // and its drifting plan signature are two trigger surfaces, not two
  // drifts).
  std::size_t model_flags = 0;
  std::size_t signature_flags = 0;
  for (const auto& [key, stats] : by_model_) {
    if (drifting(stats)) ++model_flags;
  }
  for (const auto& [key, stats] : by_signature_) {
    if (drifting(stats)) ++signature_flags;
  }
  out += ",\n  \"model_drift_flags\": ";
  append_json_number(out, static_cast<double>(model_flags));
  out += ",\n  \"signature_drift_flags\": ";
  append_json_number(out, static_cast<double>(signature_flags));
  out += ",\n  \"overall\": ";
  append_stats(out, overall_, config_.drift_threshold);
  out += ",\n";
  append_key_section(out, "models", by_model_, config_.drift_threshold);
  out += ",\n";
  append_key_section(out, "signatures", by_signature_,
                     config_.drift_threshold);
  out += "\n}\n";
  os << out;
}

std::string Residuals::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Residuals::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  overall_ = Stats{};
  scored_ = 0;
  by_model_.clear();
  by_signature_.clear();
}

Residuals& default_residuals() {
  static Residuals* sink = new Residuals();
  return *sink;
}

}  // namespace powerlens::obs
