#include "serve/plan_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/signature.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace powerlens::serve {

namespace {

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::global_metrics().counter(
      "powerlens_serve_plan_cache_hits_total",
      "plan cache requests served from the cache");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::global_metrics().counter(
      "powerlens_serve_plan_cache_misses_total",
      "plan cache requests that computed a fresh plan");
  return c;
}

obs::Counter& eviction_counter() {
  static obs::Counter& c = obs::global_metrics().counter(
      "powerlens_serve_plan_cache_evictions_total",
      "plans evicted by the LRU capacity bound");
  return c;
}

obs::Histogram& plan_compute_histogram() {
  // Cold-cache plan cost in milliseconds per plan (the factory's wall
  // time). Bounds bracket the tuned serving target (<= 0.7 ms) so
  // regressions show up as mass shifting right.
  static constexpr std::array<double, 10> kBoundsMs = {
      0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 2.0, 5.0, 10.0};
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_serve_plan_compute_ms", kBoundsMs,
      "cold-cache plan computation time per plan, milliseconds");
  return h;
}

}  // namespace

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

void PlanCache::insert_resident(std::uint64_t sig, const PlanPtr& plan) {
  if (capacity_ > 0 && plans_.size() >= capacity_) {
    plans_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    eviction_counter().inc();
  }
  lru_.push_front(sig);
  plans_.emplace(sig, Entry{plan, lru_.begin()});
}

PlanCache::PlanPtr PlanCache::get_or_compute(std::uint64_t sig,
                                             const dnn::Graph& graph,
                                             const PlanFactory& factory) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = plans_.find(sig);
  if (it != plans_.end()) {
    // Refresh recency: splice the key to the MRU end of the list.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter().inc();
    return it->second.plan;
  }

  const auto in_it = inflight_.find(sig);
  if (in_it != inflight_.end()) {
    // Another thread is computing this signature: wait for its result. The
    // request is served without a fresh computation, so it counts as a hit.
    const std::shared_ptr<InFlight> entry = in_it->second;
    cv_.wait(lock, [&] { return entry->ready; });
    if (entry->error != nullptr) std::rethrow_exception(entry->error);
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter().inc();
    obs::default_trace().instant("plan_cache_coalesced", "serve");
    return entry->plan;
  }

  // A miss computes from `graph`, so a wrong signature would file its plan
  // under another model's key.
  assert(sig == graph_signature(graph));
  const auto entry = std::make_shared<InFlight>();
  inflight_.emplace(sig, entry);
  lock.unlock();

  PlanPtr plan;
  std::exception_ptr error;
  const auto start = std::chrono::steady_clock::now();
  {
    // Wall-clock span on the computing thread's own track: plan-cache
    // misses are the serving path's dominant cold cost.
    obs::ScopedSpan span(obs::default_trace(), "plan_cache_miss", "serve");
    try {
      plan = std::make_shared<const core::OptimizationPlan>(factory(graph));
    } catch (...) {
      error = std::current_exception();
    }
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  lock.lock();
  if (error == nullptr) {
    entry->plan = plan;
    insert_resident(sig, plan);
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter().inc();
    plan_compute_histogram().observe(elapsed_ms);
  } else {
    entry->error = error;
  }
  entry->ready = true;
  inflight_.erase(sig);
  lock.unlock();
  cv_.notify_all();
  if (error != nullptr) std::rethrow_exception(error);
  return plan;
}

PlanCache::PlanPtr PlanCache::get_or_compute(const dnn::Graph& graph,
                                             const PlanFactory& factory) {
  return get_or_compute(graph_signature(graph), graph, factory);
}

bool PlanCache::preload(std::uint64_t signature, PlanPtr plan) {
  if (plan == nullptr) {
    throw std::invalid_argument("PlanCache: preload with null plan");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (plans_.contains(signature) || inflight_.contains(signature)) {
    return false;  // first wins: never clobber a resident or in-flight plan
  }
  insert_resident(signature, plan);
  preloaded_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PlanCache::install(std::uint64_t signature, PlanPtr plan) {
  if (plan == nullptr) {
    throw std::invalid_argument("PlanCache: install with null plan");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (inflight_.contains(signature)) {
    // A miss is computing this signature; replacing it mid-flight would
    // race the waiters' published result. The adaptation layer runs between
    // epochs (nothing in flight), so refusing is both safe and moot.
    return false;
  }
  const auto it = plans_.find(signature);
  if (it != plans_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return true;
  }
  insert_resident(signature, plan);
  return true;
}

std::vector<std::pair<std::uint64_t, PlanCache::PlanPtr>> PlanCache::snapshot()
    const {
  std::vector<std::pair<std::uint64_t, PlanPtr>> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(plans_.size());
    for (const auto& [sig, entry] : plans_) out.emplace_back(sig, entry.plan);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

PlanCache::PlanPtr PlanCache::lookup(std::uint64_t sig) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(sig);
  if (it == plans_.end()) return nullptr;
  // Probe-path counting only: the serving-path hit counter and the LRU
  // order are untouched, so probing the cache never inflates the hit-rate
  // story or keeps a plan alive that the serving path has abandoned.
  probe_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.plan;
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  lru_.clear();
}

}  // namespace powerlens::serve
